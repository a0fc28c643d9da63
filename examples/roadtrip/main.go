// Roadtrip: single-source shortest paths over a weighted grid "road
// network". Bounded-degree planar graphs are the opposite workload extreme
// from power-law webs: the SSSP frontier stays narrow for hundreds of
// supersteps, which is exactly what GraphH's inactive-tile skipping
// (§III-C-4) targets — and where the engine goes one step further and, in
// the tiles it does load, re-gathers only the targets that have an updated
// in-neighbour. The example runs with and without sparse-superstep handling
// and reports tiles and edges touched either way.
//
//	go run ./examples/roadtrip
package main

import (
	"fmt"
	"log"
	"math"

	graphh "repro"
	"repro/internal/graph"
)

func main() {
	const rows, cols = 250, 250
	base := graph.GenerateGrid(rows, cols)
	roads := graph.AttachWeights(base.Symmetrize(), 10, 99) // two-way roads, weights (0,10]
	roads.Name = "roadgrid"
	fmt.Printf("road network: %d intersections, %d road segments\n",
		roads.NumVertices, roads.NumEdges())

	// Fine-grained tiles (~4k edges each) so the narrow frontier maps to a
	// small fraction of tiles — the regime where Bloom skipping pays off.
	p, err := graphh.Partition(roads, graphh.PartitionOptions{TileSize: 4096})
	if err != nil {
		log.Fatal(err)
	}

	const source = 0 // top-left corner
	run := func(skip bool) *graphh.Result {
		res, err := graphh.Run(p, graphh.NewSSSP(source), graphh.Options{
			Servers:          2,
			MaxSupersteps:    2000,
			DisableBloomSkip: !skip,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	withSkip := run(true)
	withoutSkip := run(false)

	report := func(label string, r *graphh.Result) {
		var loaded, skipped int
		var gathered int64
		for _, st := range r.Steps {
			loaded += st.LoadedTiles
			skipped += st.SkippedTiles
			gathered += st.GatheredEdges
		}
		fmt.Printf("%-15s %4d supersteps, %6d tiles loaded, %6d skipped, %10d edges gathered\n",
			label, r.Supersteps, loaded, skipped, gathered)
	}
	report("sparse handling:", withSkip)
	report("full sweep:", withoutSkip)

	// Sanity: identical distances either way.
	for v := range withSkip.Values {
		if withSkip.Values[v] != withoutSkip.Values[v] {
			log.Fatalf("distance mismatch at vertex %d", v)
		}
	}

	corner := uint32(rows*cols - 1)
	fmt.Printf("\nshortest distance top-left → bottom-right: %.2f\n", withSkip.Values[corner])
	reachable := 0
	var longest float64
	for _, d := range withSkip.Values {
		if !math.IsInf(d, 1) {
			reachable++
			if d > longest {
				longest = d
			}
		}
	}
	fmt.Printf("reachable intersections: %d/%d, eccentricity of source: %.2f\n",
		reachable, roads.NumVertices, longest)
}
