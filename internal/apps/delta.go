package apps

import (
	"math"

	"repro/internal/core"
)

// PageRankDelta is PageRank with tolerance-based termination: a vertex
// suppresses its update when the value moved by less than Epsilon, so the
// engine's no-updates termination rule stops the run once every vertex is
// within tolerance. This is the standard convergence criterion production
// systems use instead of a fixed superstep budget, and it exercises GraphH's
// Bloom-filter tile skipping on PageRank's long convergence tail
// (Figure 8(a) of the paper shows the updated ratio decaying below 0.5).
type PageRankDelta struct {
	// Damping is d; zero means 0.85.
	Damping float64
	// Epsilon is the per-vertex convergence tolerance; zero means 1e-10.
	Epsilon float64
}

func (p PageRankDelta) damping() float64 {
	if p.Damping == 0 {
		return 0.85
	}
	return p.Damping
}

func (p PageRankDelta) epsilon() float64 {
	if p.Epsilon == 0 {
		return 1e-10
	}
	return p.Epsilon
}

// Name implements core.Program.
func (p PageRankDelta) Name() string { return "pagerank-delta" }

// InitValue starts every vertex at 1/|V|.
func (p PageRankDelta) InitValue(v uint32, g *core.Graph) float64 {
	return 1 / float64(g.NumVertices)
}

// Gather is PageRank's: Σ val(u)/dout(u) over the in-edges.
func (p PageRankDelta) Gather(srcs []uint32, w []float32, vals *core.Replicas, g *core.Graph) float64 {
	return PageRank{}.Gather(srcs, w, vals, g)
}

// Apply returns the PageRank update, or the old value unchanged when the
// movement is below Epsilon (suppressing the broadcast).
func (p PageRankDelta) Apply(v uint32, acc, old float64, g *core.Graph) float64 {
	d := p.damping()
	nv := (1-d)/float64(g.NumVertices) + d*acc
	if math.Abs(nv-old) < p.epsilon() {
		return old
	}
	return nv
}
