// Webrank: the paper's headline workload — PageRank over a web-crawl-like
// graph (the uk2007-sim analogue of UK-2007) on a small cluster, showing the
// edge cache and the hybrid communication mode at work. The run constrains
// the per-server cache so the automatic mode selection (§IV-B) picks a
// compressed mode, then reports hit ratios, traffic and per-step behaviour.
//
//	go run ./examples/webrank
package main

import (
	"fmt"
	"log"

	graphh "repro"
)

func main() {
	g, err := graphh.Generate("uk2007-sim", 0.25)
	if err != nil {
		log.Fatal(err)
	}
	p, err := graphh.Partition(g, graphh.PartitionOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset %s: |V|=%d |E|=%d, %d tiles (%.1f MB)\n",
		g.Name, g.NumVertices, g.NumEdges(), p.NumTiles(),
		float64(p.TotalTileBytes())/1e6)

	// Give each server an edge cache that cannot hold the raw tiles, so
	// the paper's auto-selection rule must choose a compressed cache mode.
	cacheBudget := p.TotalTileBytes() / 4
	res, err := graphh.Run(p, graphh.NewPageRank(), graphh.Options{
		Servers:       3,
		MaxSupersteps: 20,
		CacheCapacity: cacheBudget,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nPageRank: %d supersteps, avg %v/step\n",
		res.Supersteps, res.AvgStepDuration().Round(1e5))
	for _, sv := range res.Servers {
		fmt.Printf("server %d: cache hit %.1f%% (%d hits / %d misses, %.1f MB cached), disk read %.1f MB\n",
			sv.Server, sv.Cache.HitRatio()*100, sv.Cache.Hits, sv.Cache.Misses,
			float64(sv.Cache.BytesCached)/1e6, float64(sv.Disk.ReadBytes)/1e6)
	}

	fmt.Println("\nper-superstep behaviour (hybrid communication, §IV-C):")
	fmt.Println("step  updated  wireMB  tile/end frames  skipped")
	for _, st := range res.Steps {
		if st.Superstep%4 != 0 && st.Superstep != res.Supersteps-1 {
			continue
		}
		fmt.Printf("%4d  %7d  %6.2f  %7d/%-7d  %7d\n",
			st.Superstep, st.Updated, float64(st.WireBytes)/1e6,
			st.DenseMsgs, st.SparseMsgs, st.SkippedTiles)
	}
}
