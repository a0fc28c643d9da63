package core_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	. "repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tile"
)

// TestPrefetchDeterminism pins the out-of-core pipeline's contract: the
// prefetcher and the streaming tier only change where tile bytes come from,
// never the computed values. Every combination of prefetch on/off, cached or
// streaming residency, and transport must match the prefetch-off
// single-server run down to the last float64 bit, for every program.
func TestPrefetchDeterminism(t *testing.T) {
	el := graph.GenerateRMAT(graph.DefaultRMAT(), 600, 6000, 42)
	p, err := tile.Split(el, tile.Options{TileSize: el.NumEdges()/16 + 1})
	if err != nil {
		t.Fatal(err)
	}
	const steps = 8
	progs := []Program{apps.PageRank{}, apps.SSSP{}, apps.WCC{}}

	run := func(t *testing.T, prog Program, servers, prefetch int, residency ResidencyMode, tr cluster.TransportKind) []float64 {
		t.Helper()
		cfg := DefaultConfig(servers)
		cfg.WorkDir = t.TempDir()
		cfg.MaxSupersteps = steps
		cfg.Transport = tr
		cfg.PrefetchDepth = prefetch
		cfg.Residency = residency
		res, err := New(cfg).Run(Input{Partition: p}, prog)
		if err != nil {
			t.Fatal(err)
		}
		return res.Values
	}

	for _, prog := range progs {
		want := run(t, prog, 1, -1, ResidencyAuto, cluster.Inproc)
		for _, tr := range []cluster.TransportKind{cluster.Inproc, cluster.TCP} {
			for _, mode := range []struct {
				name      string
				prefetch  int
				residency ResidencyMode
			}{
				{"prefetch=8/cached", 8, ResidencyCached},
				{"prefetch=8/streaming", 8, ResidencyStreaming},
				{"prefetch=off/streaming", -1, ResidencyStreaming},
			} {
				name := fmt.Sprintf("%s/%s/%s/%s", prog.Name(), mode.name, tr, pipelinedCase)
				t.Run(name, func(t *testing.T) {
					got := run(t, prog, 3, mode.prefetch, mode.residency, tr)
					for v := range want {
						if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
							t.Fatalf("vertex %d = %x, want %x (not bit-identical)",
								v, math.Float64bits(got[v]), math.Float64bits(want[v]))
						}
					}
				})
			}
		}
	}
}

// TestPrefetchStats checks the pipeline's observability: a streaming run
// with prefetch on must report issued and claimed staging, and the device
// model must see coalesced batches and queue pressure from the background
// reads.
func TestPrefetchStats(t *testing.T) {
	el := graph.GenerateRMAT(graph.DefaultRMAT(), 600, 6000, 11)
	p, err := tile.Split(el, tile.Options{TileSize: el.NumEdges()/16 + 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(2)
	cfg.WorkDir = t.TempDir()
	cfg.MaxSupersteps = 6
	cfg.CacheCapacity = -1 // streaming: every tile load goes through the pipeline
	res, err := New(cfg).Run(Input{Partition: p}, apps.PageRank{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sv := range res.Servers {
		if sv.Residency != ResidencyStreaming {
			t.Fatalf("server %d residency %v, want streaming with the cache off", sv.Server, sv.Residency)
		}
		if sv.PrefetchIssued == 0 || sv.PrefetchHits == 0 {
			t.Fatalf("server %d prefetched nothing: %+v", sv.Server, sv)
		}
		if sv.PrefetchHits > sv.PrefetchIssued {
			t.Fatalf("server %d claimed more than it staged: %+v", sv.Server, sv)
		}
		if sv.Disk.BatchedReads == 0 {
			t.Fatalf("server %d issued no batched reads", sv.Server)
		}
		if sv.Disk.QueueHighWater == 0 {
			t.Fatalf("server %d saw no disk-queue depth from background reads", sv.Server)
		}
	}

	// Prefetch off: the counters must stay untouched.
	cfg.WorkDir = t.TempDir()
	cfg.PrefetchDepth = -1
	res, err = New(cfg).Run(Input{Partition: p}, apps.PageRank{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sv := range res.Servers {
		if sv.PrefetchIssued != 0 || sv.PrefetchHits != 0 || sv.PrefetchWasted != 0 {
			t.Fatalf("server %d reported prefetch stats with prefetch off: %+v", sv.Server, sv)
		}
		if sv.Disk.BatchedReads != 0 {
			t.Fatalf("server %d batched reads with prefetch off", sv.Server)
		}
	}
}

// TestPrefetchDiskFaultRetried is the pipeline's chaos case: a disk fault
// that lands on an in-flight prefetch batch must not kill the job — the
// staged tiles fail, the demand path retries each one synchronously, and the
// results stay bit-identical. The failed staging is visible as wasted
// prefetches.
func TestPrefetchDiskFaultRetried(t *testing.T) {
	el := graph.GenerateRMAT(graph.DefaultRMAT(), 600, 6000, 23)
	p, err := tile.Split(el, tile.Options{TileSize: el.NumEdges()/12 + 1})
	if err != nil {
		t.Fatal(err)
	}
	const steps = 6
	run := func(t *testing.T, faults *FaultPlan, prefetch int) *Result {
		t.Helper()
		cfg := DefaultConfig(2)
		cfg.WorkDir = t.TempDir()
		cfg.MaxSupersteps = steps
		cfg.CacheCapacity = -1 // streaming: all tile reads go through the store
		cfg.PrefetchDepth = prefetch
		cfg.Faults = faults
		res, err := New(cfg).Run(Input{Partition: p}, apps.PageRank{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	want := run(t, nil, -1)

	// With prefetch on, the first tile read of the run is a sweep-ahead
	// batch (the demand path is still waiting on it), so the first injected
	// read fault is guaranteed to land on an in-flight prefetch.
	faults := &FaultPlan{Disk: []DiskFault{{Server: 0, Op: "read", AfterOps: 0}}}
	got := run(t, faults, 8)
	for v := range want.Values {
		if math.Float64bits(got.Values[v]) != math.Float64bits(want.Values[v]) {
			t.Fatalf("vertex %d diverged after a prefetch-time disk fault", v)
		}
	}
	var wasted int64
	for _, sv := range got.Servers {
		wasted += sv.PrefetchWasted
	}
	if wasted == 0 {
		t.Fatal("injected fault on an in-flight prefetch left no wasted staging")
	}

	// The same one-shot fault with prefetch off lands on a demand read and
	// must fail the job — retrying is the prefetch pipeline's behaviour,
	// not a blanket swallow of disk errors.
	cfg := DefaultConfig(2)
	cfg.WorkDir = t.TempDir()
	cfg.MaxSupersteps = steps
	cfg.CacheCapacity = -1
	cfg.PrefetchDepth = -1
	cfg.Faults = &FaultPlan{Disk: []DiskFault{{Server: 0, Op: "read", AfterOps: 0}}}
	if _, err := New(cfg).Run(Input{Partition: p}, apps.PageRank{}); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("demand-read fault: got %v, want the injected fault", err)
	}
}
