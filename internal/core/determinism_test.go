package core_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	. "repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tile"
)

// pipelinedCase is a path segment of the case names in the determinism,
// crash and rejoin sweeps. The pipelined send path is the engine's only
// one; the segment keeps each case's name as it was when a serialized
// lockstep path ran beside it, so results stay comparable across history.
const pipelinedCase = "lockstep=false"

// TestPipelinedDeterminism pins the bit-identical-results contract of the
// pipelined communication subsystem: because foreign batches are staged
// during compute and applied only after the barrier-side join, and tile
// target ranges are disjoint, the final vertex values must not depend on
// the transport, the server count or the message codec. Every
// configuration must match the single-server run down to the last float64
// bit. The TCP cases run under the default codec (raw on an unmodelled
// link) and again with snappy forced.
func TestPipelinedDeterminism(t *testing.T) {
	el := graph.GenerateRMAT(graph.DefaultRMAT(), 600, 6000, 42)
	p, err := tile.Split(el, tile.Options{TileSize: el.NumEdges()/16 + 1})
	if err != nil {
		t.Fatal(err)
	}
	const steps = 8

	run := func(t *testing.T, servers int, tr cluster.TransportKind, codec func(*Config)) []float64 {
		t.Helper()
		cfg := DefaultConfig(servers)
		cfg.WorkDir = t.TempDir()
		cfg.MaxSupersteps = steps
		cfg.Transport = tr
		codec(&cfg)
		res, err := New(cfg).Run(Input{Partition: p}, apps.PageRank{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Values
	}

	want := run(t, 1, cluster.Inproc, wireCodecs[0].set)
	for _, servers := range []int{1, 2, 4, 8} {
		for _, tr := range []cluster.TransportKind{cluster.Inproc, cluster.TCP} {
			for _, codec := range wireCodecs {
				if codec.suffix != "" && tr != cluster.TCP {
					continue
				}
				name := fmt.Sprintf("servers=%d/%s%s/%s", servers, tr, codec.suffix, pipelinedCase)
				t.Run(name, func(t *testing.T) {
					got := run(t, servers, tr, codec.set)
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

// TestPipelinedStallMetrics checks that the queue-depth counters are wired
// through to ServerStats: with a tiny send queue and many tiles, a
// multi-server run must observe a nonzero high-water mark, and a
// single-server run, which has no Sender, must report no queue at all.
func TestPipelinedStallMetrics(t *testing.T) {
	el := graph.GenerateRMAT(graph.DefaultRMAT(), 512, 5000, 7)
	p, err := tile.Split(el, tile.Options{TileSize: el.NumEdges()/24 + 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(2)
	cfg.WorkDir = t.TempDir()
	cfg.MaxSupersteps = 5
	defer SetInitialQueueCap(1)()
	res, err := New(cfg).Run(Input{Partition: p}, apps.PageRank{})
	if err != nil {
		t.Fatal(err)
	}
	var hw int64
	for _, sv := range res.Servers {
		if sv.SendQueueHighWater > hw {
			hw = sv.SendQueueHighWater
		}
	}
	if hw == 0 {
		t.Fatal("pipelined run with a one-slot send queue never reported queue depth")
	}

	cfg = DefaultConfig(1)
	cfg.WorkDir = t.TempDir()
	cfg.MaxSupersteps = 5
	res, err = New(cfg).Run(Input{Partition: p}, apps.PageRank{})
	if err != nil {
		t.Fatal(err)
	}
	if sv := res.Servers[0]; sv.SendQueueCap != 0 || sv.SendStalls != 0 || sv.SendQueueHighWater != 0 {
		t.Fatalf("single-server run reported send-queue counters: %+v", sv)
	}
}
