package graphh_test

import (
	"context"
	"fmt"
	"math"

	graphh "repro"
)

// ExampleRun demonstrates the complete GraphH workflow: generate, partition
// into tiles, and run a GAB vertex program on a simulated cluster.
func ExampleRun() {
	// A tiny deterministic graph: a directed 4-cycle.
	g := &graphh.Graph{
		NumVertices: 4,
		Name:        "cycle4",
	}
	for v := uint32(0); v < 4; v++ {
		g.Edges = append(g.Edges, graphh.Edge{Src: v, Dst: (v + 1) % 4, W: 1})
	}

	p, err := graphh.Partition(g, graphh.PartitionOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := graphh.Run(p, graphh.NewPageRank(), graphh.Options{Servers: 2})
	if err != nil {
		fmt.Println(err)
		return
	}
	// On a regular cycle every vertex keeps rank 1/|V|.
	fmt.Printf("rank of vertex 0: %.2f (converged=%v)\n", res.Values[0], res.Converged)
	// Output: rank of vertex 0: 0.25 (converged=true)
}

// ExampleSession amortizes cluster setup across several jobs: the graph is
// partitioned and persisted once, then PageRank and SSSP run back-to-back
// against the same warm tile store and edge cache.
func ExampleSession() {
	g := &graphh.Graph{NumVertices: 4, Name: "cycle4"}
	for v := uint32(0); v < 4; v++ {
		g.Edges = append(g.Edges, graphh.Edge{Src: v, Dst: (v + 1) % 4, W: 1})
	}
	p, err := graphh.Partition(g, graphh.PartitionOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	s, err := graphh.Open(p, graphh.Options{Servers: 2})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer s.Close()

	ranks, err := s.Submit(context.Background(), graphh.NewPageRank(), graphh.RunOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	dists, err := s.Submit(context.Background(), graphh.NewSSSP(0), graphh.RunOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("rank of vertex 0: %.2f\n", ranks.Values[0])
	fmt.Printf("distance 0 -> 3: %g\n", dists.Values[3])
	// Output:
	// rank of vertex 0: 0.25
	// distance 0 -> 3: 3
}

// ExampleRun_sssp runs single-source shortest paths on a chain.
func ExampleRun_sssp() {
	g := &graphh.Graph{NumVertices: 5, Name: "chain"}
	for v := uint32(0); v+1 < 5; v++ {
		g.Edges = append(g.Edges, graphh.Edge{Src: v, Dst: v + 1, W: 1})
	}
	res, err := graphh.RunGraph(g, graphh.NewSSSP(0), graphh.Options{MaxSupersteps: 50})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("distance to last vertex: %g\n", res.Values[4])
	// Output: distance to last vertex: 4
}

// maxLabel is a user-defined GAB program: every vertex ends up with the
// largest id that can reach it.
type maxLabel struct{}

func (maxLabel) Name() string                                    { return "max-label" }
func (maxLabel) InitValue(v uint32, g *graphh.GraphInfo) float64 { return float64(v) }

// Gather folds all of one vertex's in-edges, starting from the identity of
// max; an empty row returns it.
func (maxLabel) Gather(srcs []uint32, w []float32, vals *graphh.Replicas, g *graphh.GraphInfo) float64 {
	acc := math.Inf(-1)
	for _, u := range srcs {
		acc = max(acc, vals.Get(u))
	}
	return acc
}

// Apply keeps the larger label, so re-applying the same gather changes
// nothing — the idempotence contract tile skipping relies on.
func (maxLabel) Apply(v uint32, acc, old float64, g *graphh.GraphInfo) float64 {
	return max(acc, old)
}

// ExampleProgram runs a user-defined Program on a directed 4-cycle.
func ExampleProgram() {
	g := &graphh.Graph{NumVertices: 4, Name: "cycle4"}
	for v := uint32(0); v < 4; v++ {
		g.Edges = append(g.Edges, graphh.Edge{Src: v, Dst: (v + 1) % 4, W: 1})
	}
	res, err := graphh.RunGraph(g, maxLabel{}, graphh.Options{Servers: 2})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("labels:", res.Values)
	// Output: labels: [3 3 3 3]
}
