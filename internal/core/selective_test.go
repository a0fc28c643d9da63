package core_test

// End-to-end tests of sparse-superstep handling: with tile skipping on, a
// job must produce exactly the values, Updated series and superstep count of
// the full dense sweep (BloomSkip off) and agree with the sequential oracles,
// under every engine configuration, across the dense/sparse switch, and
// through a crash-and-rejoin replay.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	. "repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tile"
)

// wantSameRun demands that two runs of one job agree on everything the
// selective path must not change: values bit for bit, the superstep count
// and every step's Updated.
func wantSameRun(t *testing.T, got, want *Result, label string) {
	t.Helper()
	wantExact(t, got.Values, want.Values, label)
	if got.Supersteps != want.Supersteps {
		t.Fatalf("%s: %d supersteps, want %d", label, got.Supersteps, want.Supersteps)
	}
	for i := range want.Steps {
		if got.Steps[i].Updated != want.Steps[i].Updated {
			t.Fatalf("%s: step %d updated %d vertices, want %d", label, i, got.Steps[i].Updated, want.Steps[i].Updated)
		}
	}
}

func gatheredEdges(res *Result) (total int64) {
	for _, st := range res.Steps {
		total += st.GatheredEdges
	}
	return total
}

// TestSelectiveMatrix is the bit-identity matrix: PageRank, SSSP, WCC and
// BFS × replication policy × transport × serial / two concurrent jobs ×
// cached / streaming residency. In every cell the selective run equals the
// dense one exactly and the oracle within its usual tolerance; across cells
// every run of a program equals the first.
func TestSelectiveMatrix(t *testing.T) {
	el := graph.AttachWeights(graph.GenerateRMAT(graph.DefaultRMAT(), 300, 1500, 17).Symmetrize(), 10, 3)
	p, err := tile.Split(el, tile.Options{TileSize: el.NumEdges()/9 + 1})
	if err != nil {
		t.Fatal(err)
	}
	const prSteps = 8
	labels := graph.RefWCC(el)
	wcc := make([]float64, len(labels))
	for i, l := range labels {
		wcc[i] = float64(l)
	}
	cases := []struct {
		prog   Program
		steps  int
		oracle []float64
		tol    float64
		sparse bool // has supersteps with a sparse frontier
	}{
		{apps.PageRank{}, prSteps, graph.RefPageRank(el, prSteps), 1e-12, false},
		{apps.SSSP{Source: 2}, 200, graph.RefSSSP(el, 2), 1e-9, true},
		{apps.WCC{}, 200, wcc, 0, true},
		{apps.BFS{Source: 2}, 200, graph.RefBFS(el, 2), 0, true},
	}
	first := make([][]float64, len(cases))

	for _, repl := range []ReplicationPolicy{AllInAll, OnDemand} {
		for _, tr := range []cluster.TransportKind{cluster.Inproc, cluster.TCP} {
			for _, jobs := range []int{1, 2} {
				for _, res := range []ResidencyMode{ResidencyCached, ResidencyStreaming} {
					name := fmt.Sprintf("%v/%v/jobs=%d/%v", repl, tr, jobs, res)
					t.Run(name, func(t *testing.T) {
						if tr == cluster.TCP && testing.Short() {
							t.Skip("TCP cells skipped in short mode")
						}
						open := func(skip bool) *Session {
							cfg := DefaultConfig(3)
							cfg.WorkDir = t.TempDir()
							cfg.Replication = repl
							cfg.Transport = tr
							cfg.MaxConcurrentJobs = jobs
							cfg.Residency = res
							cfg.BloomSkip = skip
							se, err := Open(Input{Partition: p}, cfg)
							if err != nil {
								t.Fatal(err)
							}
							t.Cleanup(func() { se.Close() })
							return se
						}
						selective, dense := open(true), open(false)
						for i, tc := range cases {
							opts := JobOptions{MaxSupersteps: tc.steps}
							submit := func(se *Session) *Result {
								if jobs == 1 {
									r, err := se.Submit(context.Background(), tc.prog, opts)
									if err != nil {
										t.Fatalf("%s: %v", tc.prog.Name(), err)
									}
									return r
								}
								// Two tenants: the program under test beside a
								// PageRank that keeps the other slot busy.
								rs, errs := submitConcurrently(t, se,
									[]Program{tc.prog, apps.PageRank{Damping: 0.7}},
									[]JobOptions{opts, {MaxSupersteps: prSteps}})
								for _, err := range errs {
									if err != nil {
										t.Fatalf("%s: %v", tc.prog.Name(), err)
									}
								}
								return rs[0]
							}
							got, want := submit(selective), submit(dense)
							label := name + "/" + tc.prog.Name()
							wantSameRun(t, got, want, label)
							wantClose(t, got.Values, tc.oracle, tc.tol, label+" vs oracle")
							if first[i] == nil {
								first[i] = got.Values
							}
							wantExact(t, got.Values, first[i], label+" vs first cell")
							if all := int64(got.Supersteps) * int64(p.NumEdges); gatheredEdges(want) != all {
								t.Fatalf("%s: dense sweep gathered %d edges, want %d", label, gatheredEdges(want), all)
							} else if sel := gatheredEdges(got); tc.sparse != (sel < all) {
								t.Fatalf("%s: selective run gathered %d of %d edges", label, sel, all)
							}
						}
					})
				}
			}
		}
	}
}

// roadGrid is the benchmark's sssp-grid input at seed 1.
func roadGrid(t *testing.T, side uint32, tileSize int) (*graph.EdgeList, *tile.Partition) {
	t.Helper()
	el := graph.AttachWeights(graph.GenerateGrid(side, side).Symmetrize(), 10, 1)
	p, err := tile.Split(el, tile.Options{TileSize: tileSize})
	if err != nil {
		t.Fatal(err)
	}
	return el, p
}

// TestSelectiveGridSSSP runs the sssp-grid workload's job both ways. The
// wavefront grows past BloomCheckLimit (1024) mid-run and shrinks again, so
// the job has sparse steps on both sides of the old list limit; the
// superstep count is the workload's regime guard (412 at seed 1). Every
// tile batch of the job is sparse, so each server sends exactly one frame
// per step: its end-of-step frame.
func TestSelectiveGridSSSP(t *testing.T) {
	if testing.Short() {
		t.Skip("412-superstep grid runs are slow")
	}
	el, p := roadGrid(t, 200, 4096)
	run := func(skip bool) *Result {
		cfg := DefaultConfig(4)
		cfg.WorkersPerServer = 1
		cfg.WorkDir = t.TempDir()
		cfg.MaxSupersteps = 4 * 200 * 200
		cfg.BloomSkip = skip
		res, err := New(cfg).Run(Input{Partition: p}, apps.SSSP{Source: 0})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	got, want := run(true), run(false)
	wantSameRun(t, got, want, "grid sssp")
	wantClose(t, got.Values, graph.RefSSSP(el, 0), 1e-9, "grid sssp vs Dijkstra")
	if got.Supersteps != 412 {
		t.Fatalf("ran %d supersteps, want 412", got.Supersteps)
	}
	for _, st := range got.Steps {
		if st.SparseMsgs != 4 || st.DenseMsgs != 0 {
			t.Fatalf("step %d sent %d sparse and %d dense frames, want one end-of-step frame per server (4) and no tile frames",
				st.Superstep, st.SparseMsgs, st.DenseMsgs)
		}
	}
	limit := 1024 // Config.BloomCheckLimit's default
	under, over, skipped := 0, 0, 0
	for i, st := range got.Steps[1:] {
		prev := got.Steps[i].Updated // the frontier step i+1 swept with
		if prev > int(el.NumVertices)/4 {
			t.Fatalf("step %d: frontier of %d is dense; the test wants sparse steps only", i+1, prev)
		}
		if st.GatheredEdges >= int64(p.NumEdges) {
			t.Fatalf("step %d gathered %d edges for a frontier of %d: not selective", i+1, st.GatheredEdges, prev)
		}
		if prev > limit {
			over++
		} else {
			under++
		}
		skipped += st.SkippedTiles
	}
	if under < 100 || over < 100 || skipped == 0 {
		t.Fatalf("regime not exercised: %d steps under and %d over %d actives, %d tiles skipped", under, over, limit, skipped)
	}
	if sel, all := gatheredEdges(got), gatheredEdges(want); sel*10 > all {
		t.Fatalf("selective run gathered %d edges, dense %d: want under a tenth", sel, all)
	}
}

// TestSelectiveReplayAfterKill kills a server mid-job and scripts its
// rejoin. A restored checkpoint carries no delta, so the first replayed step
// must sweep densely on every survivor and the ones after it select again —
// and the result, the Updated series and the step count must not notice.
// The join lands between jobs, so the next Submit runs with the server back.
func TestSelectiveReplayAfterKill(t *testing.T) {
	_, p := roadGrid(t, 30, 256)
	base := func() Config {
		cfg := DefaultConfig(3)
		cfg.WorkDir = t.TempDir()
		cfg.MaxSupersteps = 1000
		cfg.CheckpointEvery = 4
		cfg.FailureTimeout = 2 * time.Second
		return cfg
	}
	want, err := New(base()).Run(Input{Partition: p}, apps.SSSP{Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoints exist for steps 3, 7, 11, …; the kill at step 9 restores
	// step 7, so step 8 is the first replayed one.
	cfg := base()
	cfg.Faults = &FaultPlan{
		Kills:   []Kill{{Server: 1, Step: 9, Point: KillMidStep}},
		Rejoins: []Rejoin{{Server: 1, Step: 10}},
	}
	se, err := Open(Input{Partition: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	got, err := se.Submit(context.Background(), apps.SSSP{Source: 0}, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantSameRun(t, got, want, "replay")
	wantDead(t, got, "replay", 1)
	// Steps before 8 carry only the survivors' counters (the killed runner's
	// record dies with it), so the comparison starts at the replay, which
	// the two survivors run over every tile.
	all := int64(p.NumEdges)
	if want.Steps[8].GatheredEdges == all {
		t.Fatal("step 8 of the fault-free run is not selective; the test proves nothing")
	}
	if got.Steps[8].GatheredEdges != all {
		t.Fatalf("first replayed step gathered %d of %d edges, want the full dense sweep", got.Steps[8].GatheredEdges, all)
	}
	for i := 9; i < len(got.Steps); i++ {
		if got.Steps[i].GatheredEdges != want.Steps[i].GatheredEdges {
			t.Fatalf("step %d gathered %d edges, fault-free run %d", i, got.Steps[i].GatheredEdges, want.Steps[i].GatheredEdges)
		}
	}

	next, err := se.Submit(context.Background(), apps.SSSP{Source: 0}, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantSameRun(t, next, want, "after the join")
	wantDead(t, next, "after the join")
	if next.Servers[1].Joins != 1 {
		t.Fatalf("server 1 reports %d joins, want 1", next.Servers[1].Joins)
	}
}

// TestSelectiveFuzz is the differential fuzz across the density switch:
// small random graphs, where frontiers hover around |V|/4 so consecutive
// steps flip between the dense loop and the selective scan, must give the
// dense sweep's exact values, Updated series and step count for every
// built-in program.
func TestSelectiveFuzz(t *testing.T) {
	rounds := 40
	if testing.Short() {
		rounds = 8
	}
	rng := rand.New(rand.NewSource(20260927))
	for round := 0; round < rounds; round++ {
		n := uint32(8 + rng.Intn(150))
		m := int(n) * (1 + rng.Intn(4))
		el := graph.GenerateRMAT(graph.DefaultRMAT(), n, m, uint64(rng.Int63()))
		if rng.Intn(2) == 0 {
			el = el.Symmetrize()
		}
		el = graph.AttachWeights(el, 10, uint64(rng.Int63()))
		p, err := tile.Split(el, tile.Options{TileSize: el.NumEdges()/(2+rng.Intn(6)) + 1})
		if err != nil {
			t.Fatal(err)
		}
		src := uint32(rng.Intn(int(n)))
		servers := 1 + rng.Intn(3)
		progs := []Program{
			apps.SSSP{Source: src}, apps.BFS{Source: src}, apps.WCC{},
			apps.PageRankDelta{Epsilon: 1e-4}, apps.PageRank{},
		}
		prog := progs[rng.Intn(len(progs))]
		run := func(skip bool) *Result {
			cfg := DefaultConfig(servers)
			cfg.WorkDir = t.TempDir()
			cfg.MaxSupersteps = 60
			cfg.BloomSkip = skip
			res, err := New(cfg).Run(Input{Partition: p}, prog)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		label := fmt.Sprintf("round %d: %s, |V|=%d |E|=%d, %d tiles, %d servers", round, prog.Name(), n, el.NumEdges(), p.NumTiles(), servers)
		wantSameRun(t, run(true), run(false), label)
	}
}
