package core

// White-box tests of sparse-superstep handling: the frontier's states and
// skip predicate, the exact set of rows a selective step gathers, the
// per-step allocation budget of runStep, and the gather micro-benchmark.

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/racedetect"
	"repro/internal/tile"
)

// minPlus is SSSP from vertex 0 (package apps cannot be imported from
// in-package tests). Its Apply keeps the smaller of old and acc, so it meets
// the Program idempotence contract selective gather relies on.
type minPlus struct{}

func (minPlus) Name() string { return "min-plus" }
func (minPlus) InitValue(v uint32, g *Graph) float64 {
	if v == 0 {
		return 0
	}
	return Inf
}
func (minPlus) Gather(srcs []uint32, w []float32, vals *Replicas, g *Graph) float64 {
	acc := Inf
	for i, src := range srcs {
		acc = min(acc, vals.Get(src)+edgeValue(w, i))
	}
	return acc
}
func (minPlus) Apply(v uint32, acc, old float64, g *Graph) float64 { return min(acc, old) }

// applyLog records which vertices Apply ran for — one entry per gathered row.
type applyLog struct {
	minPlus
	rows *[]uint32
}

func (p applyLog) Apply(v uint32, acc, old float64, g *Graph) float64 {
	*p.rows = append(*p.rows, v)
	return p.minPlus.Apply(v, acc, old, g)
}

// gridPartition returns a weighted, symmetrized side×side grid cut into tiles
// of about tileSize edges: sources sit within ±side of their target, so each
// tile's source range is a narrow window of the id space.
func gridPartition(t testing.TB, side uint32, tileSize int) (*graph.EdgeList, *tile.Partition) {
	t.Helper()
	el := graph.AttachWeights(graph.GenerateGrid(side, side).Symmetrize(), 10, 1)
	p, err := tile.Split(el, tile.Options{TileSize: tileSize})
	if err != nil {
		t.Fatal(err)
	}
	return el, p
}

func TestFrontierStates(t *testing.T) {
	var f frontier
	wide := &tileMeta{srcMin: 0, srcMax: 999}
	if f.sparse() || f.idle(wide) {
		t.Fatal("a zero frontier must be unknown: no selection, no skipping")
	}
	ups := func(ids ...uint32) []comm.Update {
		out := make([]comm.Update, len(ids))
		for i, id := range ids {
			out[i].ID = id
		}
		return out
	}

	has := func(v uint32) bool { return f.bits[v>>6]&(1<<(v&63)) != 0 }

	f.begin(1000, 4)
	f.add(ups(70, 700))
	if !f.sparse() || !has(70) || !has(700) || has(71) {
		t.Fatalf("sparse frontier lost its members: %+v", f)
	}
	for _, tc := range []struct {
		lo, hi uint32
		idle   bool
	}{
		{0, 63, true},     // word 0 only; 70 lives in word 1
		{0, 64, false},    // touches word 1
		{128, 639, true},  // words 2..9: between the two members
		{650, 999, false}, // word 10 holds 700
		{1, 0, true},      // edgeless tile
	} {
		if got := f.idle(&tileMeta{srcMin: tc.lo, srcMax: tc.hi}); got != tc.idle {
			t.Errorf("idle([%d,%d]) = %v, want %v", tc.lo, tc.hi, got, tc.idle)
		}
	}

	// Past idLimit members the id list is dropped but the bitmap keeps
	// selecting.
	f.add(ups(1, 2, 3))
	if !f.idsFull || !f.sparse() || !has(3) || f.idle(wide) {
		t.Fatalf("frontier past its id limit: %+v", f)
	}

	// More than |V|/4 members: dense, nothing is skipped or selected.
	f.begin(1000, 4)
	big := make([]uint32, 251)
	for i := range big {
		big[i] = uint32(i)
	}
	f.add(ups(big...))
	if f.sparse() || f.idle(&tileMeta{srcMin: 900, srcMax: 999}) {
		t.Fatal("a frontier over |V|/4 must be dense")
	}

	f.reset()
	if f.sparse() {
		t.Fatal("reset must leave the frontier unknown")
	}
}

// bloomStub is a tile filter with a scripted answer.
type bloomStub bool

func (b bloomStub) ContainsAny([]uint32) bool { return bool(b) }
func (bloomStub) SizeBytes() int              { return 0 }

// TestFrontierBloomRefinement: an active bit inside the source range is
// necessary but not sufficient; while the frontier is small enough to list,
// the tile's Bloom filter can still prove the tile idle.
func TestFrontierBloomRefinement(t *testing.T) {
	var f frontier
	f.begin(1000, 8)
	f.add([]comm.Update{{ID: 500}})
	if !f.idle(&tileMeta{srcMin: 400, srcMax: 600, filter: bloomStub(false)}) {
		t.Fatal("range hit + Bloom miss must be idle")
	}
	if f.idle(&tileMeta{srcMin: 400, srcMax: 600, filter: bloomStub(true)}) {
		t.Fatal("range hit + Bloom hit must load")
	}
	if f.idle(&tileMeta{srcMin: 400, srcMax: 600}) {
		t.Fatal("range hit on a filterless tile must load")
	}
}

// TestSelectiveGatherExactRows drives SSSP over a grid one runStep at a
// time and checks, on every step, that the rows gathered are exactly the
// targets with at least one in-neighbour updated in the previous step (all
// rows on the first, frontier-unknown step), that GatheredEdges is those
// rows' in-degree, and that values and Updated counts track a dense
// synchronous reference — so the selective sweep changes what is computed,
// never what comes out.
func TestSelectiveGatherExactRows(t *testing.T) {
	el, p := gridPartition(t, 40, 512)
	var rows []uint32
	sv, encOpts, cleanup := newServerOn(t, p, applyLog{rows: &rows}, nil, false)
	defer cleanup()
	crew := sv.startCrew(encOpts)
	defer crew.stop()

	n := el.NumVertices
	ref := make([]float64, n) // dense synchronous Bellman-Ford
	for v := range ref {
		ref[v] = minPlus{}.InitValue(uint32(v), nil)
	}
	var prevUpdated []uint32
	sparseSteps, skipped := 0, 0
	for step := 0; ; step++ {
		if step > 2000 {
			t.Fatal("SSSP did not converge")
		}
		want := map[uint32]int{} // expected row → in-degree
		active := make(map[uint32]bool, len(prevUpdated))
		for _, u := range prevUpdated {
			active[u] = true
		}
		selective := sv.frontier.sparse()
		if selective == (step == 0) {
			t.Fatalf("step %d: frontier sparse = %v", step, selective)
		}
		for _, e := range el.Edges {
			if !selective || active[e.Src] {
				want[e.Dst] = 0
			}
		}
		var wantEdges int64
		for _, e := range el.Edges {
			if _, ok := want[e.Dst]; ok {
				want[e.Dst]++
				wantEdges++
			}
		}

		rows = rows[:0]
		st, updated, err := sv.runStep(step, crew)
		if err != nil {
			t.Fatal(err)
		}
		got := slices.Clone(rows)
		slices.Sort(got)
		if len(got) != len(want) {
			t.Fatalf("step %d: gathered %d rows, want %d", step, len(got), len(want))
		}
		for i, v := range got {
			if _, ok := want[v]; !ok || (i > 0 && got[i-1] == v) {
				t.Fatalf("step %d: row %d gathered but has no updated in-neighbour (or twice)", step, v)
			}
		}
		if st.GatheredEdges != wantEdges {
			t.Fatalf("step %d: GatheredEdges = %d, want %d", step, st.GatheredEdges, wantEdges)
		}
		if st.LoadedTiles+st.SkippedTiles != len(sv.metas) {
			t.Fatalf("step %d: %d loaded + %d skipped != %d tiles", step, st.LoadedTiles, st.SkippedTiles, len(sv.metas))
		}
		skipped += st.SkippedTiles
		if selective {
			sparseSteps++
		}

		next := slices.Clone(ref)
		for _, e := range el.Edges {
			next[e.Dst] = min(next[e.Dst], ref[e.Src]+float64(e.W))
		}
		prevUpdated = prevUpdated[:0]
		for v := range next {
			if next[v] != ref[v] {
				prevUpdated = append(prevUpdated, uint32(v))
			}
			if sv.state.values[v] != next[v] {
				t.Fatalf("step %d: vertex %d = %v, dense reference says %v", step, v, sv.state.values[v], next[v])
			}
		}
		ref = next
		if updated != len(prevUpdated) {
			t.Fatalf("step %d: Updated = %d, dense reference says %d", step, updated, len(prevUpdated))
		}
		if updated == 0 {
			break
		}
	}
	if sparseSteps < 50 || skipped == 0 {
		t.Fatalf("regime not exercised: %d sparse steps, %d skipped tiles", sparseSteps, skipped)
	}
}

// TestRunStepSteadyStateAllocs pins the whole superstep — feed loop, worker
// hand-off, absorb, frontier bookkeeping, barrier — to zero allocations in a
// warm session's job, on the dense path (smoothProg changes every vertex every step) and
// on the selective one (SSSP on a grid), with and without the pipelined
// sender.
func TestRunStepSteadyStateAllocs(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	rmat, err := tile.Split(graph.GenerateRMAT(graph.DefaultRMAT(), 512, 4096, 9), tile.Options{TileSize: 513})
	if err != nil {
		t.Fatal(err)
	}
	_, grid := gridPartition(t, 60, 1024)
	for _, tc := range []struct {
		name      string
		p         *tile.Partition
		prog      Program
		pipelined bool
		sparse    bool
	}{
		{"dense", rmat, smoothProg{}, false, false},
		{"dense-pipelined", rmat, smoothProg{}, true, false},
		{"selective", grid, minPlus{}, false, true},
		{"selective-pipelined", grid, minPlus{}, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sv, encOpts, cleanup := newServerOn(t, tc.p, tc.prog, nil, tc.pipelined)
			defer cleanup()
			crew := sv.startCrew(encOpts)
			defer crew.stop()
			step := 0
			var gathered int64
			updated := 0
			run := func() {
				st, n, err := sv.runStep(step, crew)
				if err != nil {
					t.Fatal(err)
				}
				gathered, updated = st.GatheredEdges, n
				step++
			}
			// Warm as a session does: one whole job first (to convergence, or
			// 400 steps of a program that never converges), so every tile's
			// update buffer has met its wavefront, then a fresh job's first
			// steps.
			for run(); updated != 0 && step < 400; run() {
			}
			sv.initJobState()
			for step = 0; step < 4; {
				run()
			}
			if allocs := testing.AllocsPerRun(20, run); allocs > 0 {
				t.Errorf("a warm superstep allocates %.1f times, want 0", allocs)
			}
			if selective := gathered < int64(tc.p.NumEdges); selective != tc.sparse {
				t.Fatalf("last step gathered %d of %d edges: selective = %v, want %v",
					gathered, tc.p.NumEdges, selective, tc.sparse)
			}
		})
	}
}

// rankProg is PageRank's shape (package apps cannot be imported from
// in-package tests): each row sums Get(src)/OutDeg[src].
type rankProg struct{}

func (rankProg) Name() string                         { return "rank" }
func (rankProg) InitValue(v uint32, g *Graph) float64 { return 1 / float64(g.NumVertices) }
func (rankProg) Gather(srcs []uint32, w []float32, vals *Replicas, g *Graph) float64 {
	acc := 0.0
	for _, src := range srcs {
		acc += vals.Get(src) / float64(g.OutDeg[src])
	}
	return acc
}
func (rankProg) Apply(v uint32, acc, old float64, g *Graph) float64 {
	return 0.15/float64(g.NumVertices) + 0.85*acc
}

// BenchmarkProcessTile measures one tile's gather+apply+encode: on a
// 4096-edge grid tile, the dense row loop (the frontier is unknown) beside
// the selective scan at 1, 32 and 1024 active sources; and dense-pagerank,
// the dense loop of a PageRank-shaped program on a 16384-edge RMAT tile —
// pr-mem's inner loop. ns/edge divides by the tile's edge count in every
// case, so the sparse rows read as "cost of serving this frontier, per edge
// of tile".
func BenchmarkProcessTile(b *testing.B) {
	run := func(b *testing.B, p *tile.Partition, sv *server, encOpts comm.Options, k int) {
		scr := sv.scratch[0]
		if out := sv.processTile(k, 1, encOpts, scr); out.err != nil { // warm: load the tile
			b.Fatal(out.err)
		}
		edges := sv.processTile(k, 1, encOpts, scr).gathered
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if out := sv.processTile(k, 1, encOpts, scr); out.err != nil {
				b.Fatal(out.err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(p.Tiles[sv.metas[k].id].NumEdges()), "ns/edge")
		b.ReportMetric(float64(edges), "gathered")
	}

	_, p := gridPartition(b, 100, 4096)
	sv, encOpts, cleanup := newServerOn(b, p, minPlus{}, nil, false)
	defer cleanup()
	k := len(sv.metas) / 2
	meta := sv.metas[k]
	b.Run("dense", func(b *testing.B) {
		sv.frontier.reset()
		run(b, p, sv, encOpts, k)
	})
	for _, actives := range []int{1, 32, 1024} {
		b.Run(fmt.Sprintf("sparse-%d", actives), func(b *testing.B) {
			// Spread the active sources evenly over the tile's source window.
			span := meta.srcMax - meta.srcMin + 1
			ups := make([]comm.Update, 0, actives)
			for i := 0; i < actives && uint32(i) < span; i++ {
				ups = append(ups, comm.Update{ID: meta.srcMin + uint32(i)*span/uint32(actives)})
			}
			sv.frontier.begin(sv.graph.NumVertices, sv.cfg.BloomCheckLimit)
			sv.frontier.add(ups)
			if !sv.frontier.sparse() {
				b.Fatalf("%d actives of %d vertices is not a sparse frontier", actives, sv.graph.NumVertices)
			}
			run(b, p, sv, encOpts, k)
		})
	}

	b.Run("dense-pagerank", func(b *testing.B) {
		rmat, err := tile.Split(graph.GenerateRMAT(graph.DefaultRMAT(), 1<<16, 1<<19, 3), tile.Options{TileSize: 1 << 14})
		if err != nil {
			b.Fatal(err)
		}
		sv, encOpts, cleanup := newServerOn(b, rmat, rankProg{}, nil, false)
		defer cleanup()
		run(b, rmat, sv, encOpts, len(sv.metas)/2)
	})
}
