package apps

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

func testGraph() *core.Graph {
	g := &core.Graph{NumVertices: 10, NumEdges: 30, OutDeg: make([]uint32, 10)}
	for i := range g.OutDeg {
		g.OutDeg[i] = 3
	}
	return g
}

// replicas returns All-in-All replicas of testGraph's ten vertices with
// vertex v at value v·0.1, overridden by set (vertex → value).
func replicas(set map[uint32]float64) *core.Replicas {
	vals := make([]float64, 10)
	for v := range vals {
		vals[v] = float64(v) * 0.1
	}
	for v, x := range set {
		vals[v] = x
	}
	return core.NewReplicas(vals)
}

// TestEmptyRowIsIdentity: a target with no in-edges in the tile folds
// nothing, so Gather returns the program's identity — 0 for the sums,
// +Inf for the mins — whether or not the graph is weighted.
func TestEmptyRowIsIdentity(t *testing.T) {
	g := testGraph()
	vals := replicas(nil)
	for _, tc := range []struct {
		prog core.Program
		want float64
	}{
		{PageRank{}, 0},
		{PageRankDelta{}, 0},
		{DegreeSum{}, 0},
		{SSSP{}, core.Inf},
		{BFS{}, core.Inf},
		{WCC{}, core.Inf},
	} {
		for _, w := range [][]float32{nil, {}} {
			got := tc.prog.Gather(nil, w, vals, g)
			if math.Float64bits(got) != math.Float64bits(tc.want) {
				t.Errorf("%s: empty row (w=%v) gathers %v, want %v", tc.prog.Name(), w, got, tc.want)
			}
		}
	}
}

// TestUnweightedIsAllOnes: w == nil means every edge value is 1, so the
// weight-reading programs fold exactly what an all-ones w gives them.
func TestUnweightedIsAllOnes(t *testing.T) {
	g := testGraph()
	vals := replicas(map[uint32]float64{2: core.Inf, 5: 0})
	srcs := []uint32{7, 2, 5, 5, 9, 0}
	ones := []float32{1, 1, 1, 1, 1, 1}
	for _, p := range []core.Program{SSSP{}, DegreeSum{}} {
		a, b := p.Gather(srcs, nil, vals, g), p.Gather(srcs, ones, vals, g)
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%s: w=nil gathers %v, all-ones w %v", p.Name(), a, b)
		}
	}
	if got := (DegreeSum{}).Gather(srcs, nil, vals, g); got != 6 {
		t.Fatalf("unweighted degree = %v, want 6", got)
	}
	if got := (SSSP{}).Gather(srcs, nil, vals, g); got != 1 {
		t.Fatalf("unweighted relax = %v, want 1 (vertex 5 at 0, plus 1)", got)
	}
}

// TestPageRankRowFoldBitEqual: the row fold adds the same operands in the
// same order as a reference loop that accumulates one edge at a time, so it
// is bit-equal to it on a random row, repeated sources included.
func TestPageRankRowFoldBitEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 1000
	g := &core.Graph{NumVertices: n, OutDeg: make([]uint32, n)}
	vals := make([]float64, n)
	for v := range vals {
		g.OutDeg[v] = uint32(1 + rng.Intn(50))
		vals[v] = rng.Float64() / n
	}
	srcs := make([]uint32, 777)
	for i := range srcs {
		srcs[i] = uint32(rng.Intn(n))
	}
	want := 0.0
	for _, src := range srcs {
		want = want + vals[src]/float64(g.OutDeg[src])
	}
	for _, p := range []core.Program{PageRank{}, PageRankDelta{}} {
		if got := p.Gather(srcs, nil, core.NewReplicas(vals), g); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: row fold %v, per-edge loop %v", p.Name(), got, want)
		}
	}
}

func TestPageRankCallbacks(t *testing.T) {
	g := testGraph()
	pr := PageRank{}
	if pr.Name() != "pagerank" {
		t.Fatal("name")
	}
	if pr.InitValue(0, g) != 0.1 {
		t.Fatalf("init = %g", pr.InitValue(0, g))
	}
	// Gather sums val/outdeg: 0.3/3 + 0.6/3.
	if got := pr.Gather([]uint32{3, 6}, nil, replicas(nil), g); math.Abs(got-0.3) > 1e-15 {
		t.Fatalf("gather = %g", got)
	}
	// Apply: 0.15/10 + 0.85*acc.
	if got := pr.Apply(0, 0.2, 0, g); math.Abs(got-(0.015+0.17)) > 1e-15 {
		t.Fatalf("apply = %g", got)
	}
	// Custom damping.
	half := PageRank{Damping: 0.5}
	if got := half.Apply(0, 0.2, 0, g); math.Abs(got-(0.05+0.1)) > 1e-15 {
		t.Fatalf("damped apply = %g", got)
	}
}

func TestSSSPCallbacks(t *testing.T) {
	g := testGraph()
	s := SSSP{Source: 4}
	if s.InitValue(4, g) != 0 || !math.IsInf(s.InitValue(5, g), 1) {
		t.Fatal("init")
	}
	vals := replicas(map[uint32]float64{0: 3, 1: 7})
	// min(3+2.5, 7+0.5) relaxes through vertex 0.
	if got := s.Gather([]uint32{0, 1}, []float32{2.5, 0.5}, vals, g); got != 5.5 {
		t.Fatalf("gather relax = %g", got)
	}
	// min(3+5, 7+0.5): a later edge can win.
	if got := s.Gather([]uint32{0, 1}, []float32{5, 0.5}, vals, g); got != 7.5 {
		t.Fatalf("gather keeps the shorter = %g", got)
	}
	if s.Apply(0, 3, 5, g) != 3 || s.Apply(0, 7, 5, g) != 5 {
		t.Fatal("apply min")
	}
	// Relaxing from an unreached vertex stays +Inf.
	if !math.IsInf(s.Gather([]uint32{2}, nil, replicas(map[uint32]float64{2: core.Inf}), g), 1) {
		t.Fatal("Inf + w must stay Inf")
	}
}

func TestBFSIgnoresWeights(t *testing.T) {
	g := testGraph()
	b := BFS{Source: 0}
	if got := b.Gather([]uint32{1}, []float32{99}, replicas(map[uint32]float64{1: 2}), g); got != 3 {
		t.Fatalf("bfs hop = %g", got)
	}
}

func TestWCCCallbacks(t *testing.T) {
	g := testGraph()
	w := WCC{}
	if w.InitValue(7, g) != 7 {
		t.Fatal("init label")
	}
	vals := replicas(map[uint32]float64{0: 5, 1: 3, 2: 8})
	if got := w.Gather([]uint32{0, 1, 2}, nil, vals, g); got != 3 {
		t.Fatalf("gather min label = %g", got)
	}
	if got := w.Apply(0, 2, 6, g); got != 2 {
		t.Fatalf("apply = %g", got)
	}
}

func TestDegreeSum(t *testing.T) {
	g := testGraph()
	d := DegreeSum{}
	if d.InitValue(0, g) != -1 {
		t.Fatal("init sentinel")
	}
	if got := d.Gather([]uint32{0, 4}, []float32{2, 1.5}, replicas(nil), g); got != 3.5 {
		t.Fatalf("gather = %g", got)
	}
	if d.Apply(0, 4, -1, g) != 4 {
		t.Fatal("apply passes accumulator through")
	}
}

func TestPageRankDeltaSuppression(t *testing.T) {
	g := testGraph()
	p := PageRankDelta{Epsilon: 1e-3}
	old := 0.1
	// acc chosen so the raw update differs from old by less than epsilon.
	acc := (old - 0.015 + 1e-4) / 0.85
	if got := p.Apply(0, acc, old, g); got != old {
		t.Fatalf("small move not suppressed: %g", got)
	}
	// A large move passes through.
	if got := p.Apply(0, 0.5, old, g); got == old {
		t.Fatal("large move suppressed")
	}
	if p.Name() != "pagerank-delta" {
		t.Fatal("name")
	}
	if p.InitValue(3, g) != 0.1 {
		t.Fatal("init")
	}
	if got := p.Gather([]uint32{3}, nil, replicas(nil), g); math.Abs(got-0.1) > 1e-15 {
		t.Fatalf("gather = %g", got)
	}
}
