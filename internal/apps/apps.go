// Package apps provides the vertex programs evaluated in the paper —
// PageRank (Algorithm 6) and single-source shortest paths (Algorithm 7) —
// plus the standard companions BFS and weakly connected components, all
// expressed in the GAB model of package core.
package apps

import (
	"repro/internal/core"
)

// PageRank is Algorithm 6: val'(v) = (1-d)/|V| + d·Σ val(u)/dout(u) over
// in-neighbors u. The damping factor d defaults to the paper's 0.85.
type PageRank struct {
	// Damping is d; zero means 0.85.
	Damping float64
}

func (p PageRank) damping() float64 {
	if p.Damping == 0 {
		return 0.85
	}
	return p.Damping
}

// Name implements core.Program.
func (p PageRank) Name() string { return "pagerank" }

// InitValue starts every vertex at 1/|V|.
func (p PageRank) InitValue(v uint32, g *core.Graph) float64 {
	return 1 / float64(g.NumVertices)
}

// Gather sums val(u)/dout(u) over the in-edges, from the additive identity.
func (p PageRank) Gather(srcs []uint32, w []float32, vals *core.Replicas, g *core.Graph) float64 {
	acc := 0.0
	for _, src := range srcs {
		acc += vals.Get(src) / float64(g.OutDeg[src])
	}
	return acc
}

// Apply folds the accumulator into the PageRank update rule.
func (p PageRank) Apply(v uint32, acc, old float64, g *core.Graph) float64 {
	d := p.damping()
	return (1-d)/float64(g.NumVertices) + d*acc
}

// SSSP is Algorithm 7: synchronous Bellman-Ford relaxation toward the fixed
// point dist(v) = min over in-edges (u,v) of dist(u) + val(u,v).
type SSSP struct {
	// Source is the origin vertex.
	Source uint32
}

// Name implements core.Program.
func (s SSSP) Name() string { return "sssp" }

// InitValue is 0 at the source and +Inf elsewhere.
func (s SSSP) InitValue(v uint32, g *core.Graph) float64 {
	if v == s.Source {
		return 0
	}
	return core.Inf
}

// Gather relaxes every in-edge, from the min identity +Inf.
func (s SSSP) Gather(srcs []uint32, w []float32, vals *core.Replicas, g *core.Graph) float64 {
	acc := core.Inf
	for i, src := range srcs {
		if d := vals.Get(src) + edgeValue(w, i); d < acc {
			acc = d
		}
	}
	return acc
}

// Apply keeps the shorter of the old and newly relaxed distances.
func (s SSSP) Apply(v uint32, acc, old float64, g *core.Graph) float64 {
	if acc < old {
		return acc
	}
	return old
}

// BFS computes hop counts from a source: SSSP with unit edge weights
// regardless of stored edge values.
type BFS struct {
	// Source is the origin vertex.
	Source uint32
}

// Name implements core.Program.
func (b BFS) Name() string { return "bfs" }

// InitValue is 0 at the source and +Inf elsewhere.
func (b BFS) InitValue(v uint32, g *core.Graph) float64 {
	if v == b.Source {
		return 0
	}
	return core.Inf
}

// Gather relaxes one hop along every in-edge, from the min identity +Inf.
func (b BFS) Gather(srcs []uint32, w []float32, vals *core.Replicas, g *core.Graph) float64 {
	acc := core.Inf
	for _, src := range srcs {
		if d := vals.Get(src) + 1; d < acc {
			acc = d
		}
	}
	return acc
}

// Apply keeps the smaller hop count.
func (b BFS) Apply(v uint32, acc, old float64, g *core.Graph) float64 {
	if acc < old {
		return acc
	}
	return old
}

// WCC labels each vertex with the smallest vertex id reachable by ignoring
// edge direction. The input graph must be symmetrized (every edge present
// in both directions) because GAB gathers along in-edges only; see
// graph.EdgeList.Symmetrize.
type WCC struct{}

// Name implements core.Program.
func (WCC) Name() string { return "wcc" }

// InitValue labels each vertex with its own id.
func (WCC) InitValue(v uint32, g *core.Graph) float64 { return float64(v) }

// Gather propagates the smallest label seen on in-neighbors, from the min
// identity +Inf.
func (WCC) Gather(srcs []uint32, w []float32, vals *core.Replicas, g *core.Graph) float64 {
	acc := core.Inf
	for _, src := range srcs {
		if l := vals.Get(src); l < acc {
			acc = l
		}
	}
	return acc
}

// Apply keeps the smallest label.
func (WCC) Apply(v uint32, acc, old float64, g *core.Graph) float64 {
	if acc < old {
		return acc
	}
	return old
}

// DegreeSum is a one-superstep diagnostic program: each vertex's final value
// is the weighted count of its in-edges. Used by tests to verify that every
// edge is visited exactly once.
type DegreeSum struct{}

// Name implements core.Program.
func (DegreeSum) Name() string { return "degreesum" }

// InitValue starts at -1 so that even zero-in-degree vertices register one
// update on the first superstep and exactly quiesce on the second.
func (DegreeSum) InitValue(v uint32, g *core.Graph) float64 { return -1 }

// Gather sums the edge values, from the additive identity.
func (DegreeSum) Gather(srcs []uint32, w []float32, vals *core.Replicas, g *core.Graph) float64 {
	acc := 0.0
	for i := range srcs {
		acc += edgeValue(w, i)
	}
	return acc
}

// Apply reports the accumulator.
func (DegreeSum) Apply(v uint32, acc, old float64, g *core.Graph) float64 { return acc }

// edgeValue is edge i's value in a row's edge values w: w[i], or 1 when w is
// nil (an unweighted graph).
func edgeValue(w []float32, i int) float64 {
	if w == nil {
		return 1
	}
	return float64(w[i])
}
