package core_test

// Session lifecycle tests: the acceptance pins for the persistent-cluster
// API. A second Submit on a warm session must reuse the persisted tiles
// (no re-partitioning, no tile writes) and hit the edge cache from its
// first superstep; Submit results must be bit-identical to standalone
// Run across transports; and cancelling a Submit must abort at the next
// step edge with ctx.Err() while leaving the session healthy.

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/compress"
	. "repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tile"
)

// driftProg never converges: every Apply moves the value, so a job runs
// until MaxSupersteps — the workload cancellation tests need.
type driftProg struct{}

func (driftProg) Name() string                         { return "drift" }
func (driftProg) InitValue(v uint32, g *Graph) float64 { return float64(v%13) + 1 }
func (driftProg) Gather(srcs []uint32, w []float32, vals *Replicas, g *Graph) float64 {
	acc := 0.0
	for i, src := range srcs {
		acc += vals.Get(src) * EdgeValue(w, i)
	}
	return acc
}
func (driftProg) Apply(v uint32, acc, old float64, g *Graph) float64 {
	return old*0.5 + acc*0.25 + 0.125
}

func sessionGraph(t *testing.T) (*graph.EdgeList, *tile.Partition) {
	t.Helper()
	el := graph.GenerateRMAT(graph.DefaultRMAT(), 400, 4000, 101).Symmetrize()
	p, err := tile.Split(el, tile.Options{TileSize: el.NumEdges()/12 + 1})
	if err != nil {
		t.Fatal(err)
	}
	return el, p
}

// TestSessionWarmReuse pins the amortization contract: the second Submit
// performs no tile re-persistence and serves its very first superstep from
// the warm edge cache (hits only, zero new misses, zero new tile writes,
// zero new disk reads). Tile placement is static: a third Submit finds
// every server holding the same tiles and vertex slots as the first.
func TestSessionWarmReuse(t *testing.T) {
	_, p := sessionGraph(t)
	raw := compress.None
	cfg := DefaultConfig(3)
	cfg.WorkDir = t.TempDir()
	cfg.CacheAuto = false
	cfg.CacheMode = raw
	cfg.MaxSupersteps = 5

	se, err := Open(Input{Partition: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()

	res1, err := se.Submit(context.Background(), apps.PageRank{}, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A one-superstep second job: every cache access it makes is a
	// first-superstep access.
	res2, err := se.Submit(context.Background(), apps.PageRank{}, JobOptions{MaxSupersteps: 1})
	if err != nil {
		t.Fatal(err)
	}

	if res2.Steps[0].LoadedTiles == 0 {
		t.Fatal("warm job loaded no tiles")
	}
	tilesPerServer := 0
	for i := range res1.Servers {
		s1, s2 := res1.Servers[i], res2.Servers[i]
		if d := s2.Disk.WriteOps - s1.Disk.WriteOps; d != 0 {
			t.Errorf("server %d: warm Submit re-persisted tiles (%d writes)", i, d)
		}
		if d := s2.Disk.ReadOps - s1.Disk.ReadOps; d != 0 {
			t.Errorf("server %d: warm Submit read %d tiles from disk, want all from cache", i, d)
		}
		if d := s2.Cache.Misses - s1.Cache.Misses; d != 0 {
			t.Errorf("server %d: warm Submit missed the cache %d times", i, d)
		}
		hits := s2.Cache.Hits - s1.Cache.Hits
		if hits <= 0 {
			t.Errorf("server %d: warm Submit reported no first-superstep cache hits", i)
		}
		tilesPerServer += int(hits)
	}
	if tilesPerServer != p.NumTiles() {
		t.Errorf("first warm superstep hit %d tiles, want every tile (%d)", tilesPerServer, p.NumTiles())
	}

	res3, err := se.Submit(context.Background(), apps.PageRank{}, JobOptions{MaxSupersteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res1.Servers {
		s1, s2, s3 := res1.Servers[i], res2.Servers[i], res3.Servers[i]
		// Job 1's first dense sweep missed each of the server's tiles once
		// (the unlimited cache hits from then on); job 3's one-step sweep
		// hit each once.
		if tiles1, tiles3 := s1.Cache.Misses, s3.Cache.Hits-s2.Cache.Hits; tiles1 != tiles3 {
			t.Errorf("server %d: holds %d tiles on job 3, %d on job 1", i, tiles3, tiles1)
		}
		if s1.VertexSlots != s3.VertexSlots {
			t.Errorf("server %d: %d vertex slots on job 3, %d on job 1", i, s3.VertexSlots, s1.VertexSlots)
		}
	}
}

// TestSessionMatchesRun pins bit-identical results: submitting PageRank,
// SSSP and WCC back-to-back on one warm session must produce exactly the
// values of three standalone Runs, on both transports.
func TestSessionMatchesRun(t *testing.T) {
	el, p := sessionGraph(t)
	_ = el
	progs := []Program{apps.PageRank{}, apps.SSSP{Source: 1}, apps.WCC{}}
	for _, tr := range []cluster.TransportKind{cluster.Inproc, cluster.TCP} {
		t.Run(tr.String(), func(t *testing.T) {
			cfg := DefaultConfig(3)
			cfg.Transport = tr
			cfg.MaxSupersteps = 30
			cfg.WorkDir = t.TempDir()
			se, err := Open(Input{Partition: p}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer se.Close()
			for _, prog := range progs {
				got, err := se.Submit(context.Background(), prog, JobOptions{})
				if err != nil {
					t.Fatalf("%s: %v", prog.Name(), err)
				}
				ref := cfg
				ref.WorkDir = t.TempDir()
				want, err := New(ref).Run(Input{Partition: p}, prog)
				if err != nil {
					t.Fatalf("%s standalone: %v", prog.Name(), err)
				}
				for v := range want.Values {
					if got.Values[v] != want.Values[v] {
						t.Fatalf("%s: session value differs from Run at vertex %d: %g vs %g",
							prog.Name(), v, got.Values[v], want.Values[v])
					}
				}
			}
		})
	}
}

// TestSessionCancellation pins the abort contract: cancelling mid-job stops
// the loop at the next superstep edge with ctx.Err(), and the same session
// then accepts and completes a further Submit.
func TestSessionCancellation(t *testing.T) {
	_, p := sessionGraph(t)
	for _, tr := range []cluster.TransportKind{cluster.Inproc, cluster.TCP} {
		t.Run(tr.String(), func(t *testing.T) {
			cfg := DefaultConfig(2)
			cfg.Transport = tr
			cfg.WorkDir = t.TempDir()
			se, err := Open(Input{Partition: p}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer se.Close()

			// Cancel from the progress callback at the end of superstep 2.
			// The loop must run exactly one more superstep (the vote at step
			// 3's edge aborts), so progress fires for steps 0,1,2 and never
			// again.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			calls := 0
			_, err = se.Submit(ctx, driftProg{}, JobOptions{
				MaxSupersteps: 50,
				Progress: func(st StepStats) {
					calls++
					if st.Superstep == 2 {
						cancel()
					}
				},
			})
			// Equality, not just errors.Is: Submit's contract is to return
			// ctx.Err() itself, not a wrapper around it.
			if err != context.Canceled {
				t.Fatalf("cancelled Submit returned %v, want context.Canceled itself", err)
			}
			if calls != 3 {
				t.Fatalf("progress fired %d times, want 3 (abort within one superstep of the cancel)", calls)
			}

			// A pre-cancelled context aborts after at most one superstep.
			pre, preCancel := context.WithCancel(context.Background())
			preCancel()
			if _, err := se.Submit(pre, driftProg{}, JobOptions{MaxSupersteps: 50}); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-cancelled Submit returned %v, want context.Canceled", err)
			}

			// The session is still healthy: a fresh Submit completes and
			// matches a standalone Run bit for bit.
			got, err := se.Submit(context.Background(), apps.PageRank{}, JobOptions{MaxSupersteps: 10})
			if err != nil {
				t.Fatalf("Submit after cancellation: %v", err)
			}
			ref := cfg
			ref.WorkDir = t.TempDir()
			ref.MaxSupersteps = 10
			want, err := New(ref).Run(Input{Partition: p}, apps.PageRank{})
			if err != nil {
				t.Fatal(err)
			}
			for v := range want.Values {
				if got.Values[v] != want.Values[v] {
					t.Fatalf("post-cancel Submit differs from Run at vertex %d", v)
				}
			}
		})
	}
}

// TestSessionHardErrorKillsSession pins the other half of the error
// contract: a hard mid-job failure (injected disk error) surfaces from
// Submit with its cause intact, and every later Submit fails fast.
func TestSessionHardErrorKillsSession(t *testing.T) {
	_, p := sessionGraph(t)
	boom := errors.New("injected disk failure")
	armed := false
	cfg := DefaultConfig(2)
	cfg.WorkDir = t.TempDir()
	cfg.CacheCapacity = -1 // every superstep must touch the disk
	cfg.MaxSupersteps = 6
	cfg.DiskFailureHook = func(server int, op, name string) error {
		if armed && server == 0 && op == "read" {
			return boom
		}
		return nil
	}
	se, err := Open(Input{Partition: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	if _, err := se.Submit(context.Background(), apps.PageRank{}, JobOptions{}); err != nil {
		t.Fatalf("healthy job failed: %v", err)
	}
	armed = true
	_, err = se.Submit(context.Background(), apps.PageRank{}, JobOptions{})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("injected failure surfaced as %v, want cause preserved", err)
	}
	_, err = se.Submit(context.Background(), apps.PageRank{}, JobOptions{})
	if err == nil || !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("Submit on dead session returned %v, want fail-fast abort error", err)
	}
}

// TestSessionCloseSemantics: Close is idempotent and Submit-after-Close
// errors cleanly.
func TestSessionCloseSemantics(t *testing.T) {
	_, p := sessionGraph(t)
	cfg := DefaultConfig(2)
	cfg.WorkDir = t.TempDir()
	se, err := Open(Input{Partition: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := se.Submit(context.Background(), apps.PageRank{}, JobOptions{MaxSupersteps: 2}); err != nil {
		t.Fatal(err)
	}
	if err := se.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := se.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := se.Submit(context.Background(), apps.PageRank{}, JobOptions{}); err == nil {
		t.Fatal("Submit on closed session succeeded")
	}
}

// TestSessionPerJobKnobs: MaxSupersteps and MsgCodec vary per Submit on one
// session without disturbing results.
func TestSessionPerJobKnobs(t *testing.T) {
	_, p := sessionGraph(t)
	cfg := DefaultConfig(2)
	cfg.WorkDir = t.TempDir()
	cfg.MaxSupersteps = 9
	se, err := Open(Input{Partition: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()

	raw := compress.None
	base, err := se.Submit(context.Background(), apps.PageRank{}, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Supersteps != 9 {
		t.Fatalf("default job ran %d supersteps, want the session default 9", base.Supersteps)
	}
	for i, opts := range []JobOptions{
		{MaxSupersteps: 9},
		{MaxSupersteps: 9, MsgCodec: &raw},
	} {
		res, err := se.Submit(context.Background(), apps.PageRank{}, opts)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		for v := range base.Values {
			if res.Values[v] != base.Values[v] {
				t.Fatalf("variant %d changed results at vertex %d", i, v)
			}
		}
	}
	short, err := se.Submit(context.Background(), apps.PageRank{}, JobOptions{MaxSupersteps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if short.Supersteps != 3 {
		t.Fatalf("per-job bound ran %d supersteps, want 3", short.Supersteps)
	}
}

// TestSessionProgressStream: the Progress callback fires once per
// superstep, in order, with the global Updated counts of the merged result.
func TestSessionProgressStream(t *testing.T) {
	_, p := sessionGraph(t)
	cfg := DefaultConfig(2)
	cfg.WorkDir = t.TempDir()
	se, err := Open(Input{Partition: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	var seen []StepStats
	res, err := se.Submit(context.Background(), apps.PageRank{}, JobOptions{
		MaxSupersteps: 6,
		Progress:      func(st StepStats) { seen = append(seen, st) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(res.Steps) {
		t.Fatalf("progress fired %d times for %d supersteps", len(seen), len(res.Steps))
	}
	for i, st := range seen {
		if st.Superstep != i {
			t.Fatalf("progress step %d reported superstep %d", i, st.Superstep)
		}
		if st.Updated != res.Steps[i].Updated {
			t.Fatalf("step %d: progress Updated %d vs merged %d", i, st.Updated, res.Steps[i].Updated)
		}
	}
}
