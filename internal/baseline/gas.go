package baseline

import (
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/graph"
)

// RunGAS executes alg with the PowerGraph computation model (§II-B-2,
// §II-C-2): edges are vertex-cut across servers, every vertex has a master
// (rank id mod N) plus mirror replicas on each server that owns one of its
// edges, gather runs locally per replica, partial accumulators flow
// mirror→master, masters apply and synchronize new values master→mirrors —
// the 2M|V| network traffic of Table III.
//
// cfg.Placement selects PowerGraph's random vertex-cut or PowerLyra's
// hybrid-cut (low-in-degree vertices keep their in-edges on the target
// master, shrinking the replication factor on skewed graphs).
func RunGAS(el *graph.EdgeList, alg Alg, cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	g, inDeg, _ := info(el)
	n := cfg.NumServers

	setupStart := time.Now()
	type edge struct {
		src, dst uint32
		w        float32
	}
	// Edge placement (stage equivalent of graph partitioning, §II-B-2).
	edges := make([][]edge, n)
	place := func(e graph.Edge) int {
		switch cfg.Placement {
		case HybridCut:
			if inDeg[e.Dst] <= cfg.HighDegreeThreshold {
				return int(e.Dst) % n // low-degree: edges live with target master
			}
			return int(e.Src) % n // high-degree: cut by source
		default:
			// Random vertex-cut: hash the edge.
			h := uint64(e.Src)*0x9e3779b97f4a7c15 ^ uint64(e.Dst)*0xbf58476d1ce4e5b9
			h ^= h >> 29
			return int(h % uint64(n))
		}
	}
	for _, e := range el.Edges {
		j := place(e)
		edges[j] = append(edges[j], edge{src: e.Src, dst: e.Dst, w: e.W})
	}
	// Group each server's edges by source for the frontier-driven gather.
	for j := range edges {
		sort.SliceStable(edges[j], func(a, b int) bool { return edges[j][a].src < edges[j][b].src })
	}

	// Replica sets: server j replicates v iff it owns an edge incident to v
	// or is v's master. The replication factor M is their average size.
	replicaOn := make([][]bool, n) // replicaOn[j][v]
	for j := 0; j < n; j++ {
		replicaOn[j] = make([]bool, g.NumVertices)
		for _, e := range edges[j] {
			replicaOn[j][e.src] = true
			replicaOn[j][e.dst] = true
		}
	}
	var replicaTotal int64
	replicaServers := make([][]int32, g.NumVertices) // servers holding v, master excluded
	for v := uint32(0); v < g.NumVertices; v++ {
		master := int(v) % n
		replicaOn[master][v] = true
		for j := 0; j < n; j++ {
			if replicaOn[j][v] {
				replicaTotal++
				if j != master {
					replicaServers[v] = append(replicaServers[v], int32(j))
				}
			}
		}
	}

	cl, err := cluster.New(cluster.Config{
		NumNodes: n, Transport: cfg.Transport, NetBandwidth: cfg.NetBandwidth,
	})
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	res := &Result{
		Values:            make([]float64, g.NumVertices),
		MemoryPerServer:   make([]int64, n),
		ReplicationFactor: float64(replicaTotal) / float64(g.NumVertices),
	}
	setup := time.Since(setupStart)

	stepDur := make([][]time.Duration, n)
	loopStart := time.Now()
	runErr := cl.Run(func(node *cluster.Node) error {
		j := node.ID()
		vals := make([]float64, g.NumVertices)
		var masters []uint32
		for v := uint32(j); v < g.NumVertices; v += uint32(n) {
			masters = append(masters, v)
		}
		for v := uint32(0); v < g.NumVertices; v++ {
			if replicaOn[j][v] {
				vals[v] = alg.Init(v, g)
			}
		}
		// The local gather frontier: sources whose replicas changed last
		// superstep (all replicated sources in superstep 0).
		var frontier []uint32
		for v := uint32(0); v < g.NumVertices; v++ {
			if replicaOn[j][v] {
				frontier = append(frontier, v)
			}
		}

		for step := 0; step < cfg.MaxSupersteps; step++ {
			start := time.Now()

			// Gather phase: local partial accumulators over this server's
			// edges whose source is in the frontier.
			partial := make(map[uint32]float64)
			for _, u := range frontier {
				if vals[u] == alg.Identity {
					continue
				}
				lo := sort.Search(len(edges[j]), func(i int) bool { return edges[j][i].src >= u })
				for i := lo; i < len(edges[j]) && edges[j][i].src == u; i++ {
					e := edges[j][i]
					m := alg.Emit(u, vals[u], float64(e.w), g)
					if prev, ok := partial[e.dst]; ok {
						partial[e.dst] = alg.Combine(prev, m)
					} else {
						partial[e.dst] = m
					}
				}
			}

			// Mirror → master: ship partials to each target's master.
			outMaps := make([]map[uint32]float64, n)
			for d := range outMaps {
				outMaps[d] = make(map[uint32]float64)
			}
			for v, acc := range partial {
				outMaps[int(v)%n][v] = acc
			}
			for d := 0; d < n; d++ {
				if d == j {
					continue
				}
				ps := make([]pair, 0, len(outMaps[d]))
				for id, val := range outMaps[d] {
					ps = append(ps, pair{id: id, val: val})
				}
				if err := node.Send(d, encodePairs(ps)); err != nil {
					return err
				}
			}
			incoming := outMaps[j]
			if n > 1 {
				err := recvPairs(node, func(p pair) {
					if prev, ok := incoming[p.id]; ok {
						incoming[p.id] = alg.Combine(prev, p.val)
					} else {
						incoming[p.id] = p.val
					}
				})
				if err != nil {
					return err
				}
			}
			node.Barrier() // separate gather traffic from sync traffic

			// Apply phase at masters.
			updated := 0
			syncOut := make([]map[uint32]float64, n)
			for d := range syncOut {
				syncOut[d] = make(map[uint32]float64)
			}
			var changedLocal []uint32
			apply := func(v uint32, acc float64, has bool) {
				old := vals[v]
				nv := alg.Apply(v, old, acc, has, g)
				if nv != old {
					vals[v] = nv
					updated++
					changedLocal = append(changedLocal, v)
					for _, d := range replicaServers[v] {
						syncOut[d][v] = nv
					}
				}
			}
			if alg.FrontierBased {
				for v, acc := range incoming {
					apply(v, acc, true)
				}
			} else {
				for _, v := range masters {
					acc, has := incoming[v]
					if !has {
						acc = alg.Identity
					}
					apply(v, acc, has)
				}
			}

			// Master → mirrors: synchronize updated values.
			for d := 0; d < n; d++ {
				if d == j {
					continue
				}
				ps := make([]pair, 0, len(syncOut[d]))
				for id, val := range syncOut[d] {
					ps = append(ps, pair{id: id, val: val})
				}
				if err := node.Send(d, encodePairs(ps)); err != nil {
					return err
				}
			}
			next := changedLocal
			if n > 1 {
				err := recvPairs(node, func(p pair) {
					vals[p.id] = p.val
					next = append(next, p.id)
				})
				if err != nil {
					return err
				}
			}
			sort.Slice(next, func(a, b int) bool { return next[a] < next[b] })

			total, err := exchangeCount(node, updated)
			if err != nil {
				return err
			}
			stepDur[j] = append(stepDur[j], time.Since(start))
			node.Barrier()
			if total == 0 {
				break
			}
			// Frontier algorithms gather only from changed sources next
			// step (safe for monotone min-combiners). Sum-style programs
			// like PageRank must gather every source's contribution every
			// superstep, so their frontier stays the full replica set.
			if alg.FrontierBased {
				frontier = next
			}
		}

		// Table III accounting: M|V| vertex states (20 B each, amortized
		// via this server's replica count), 2×8 B per local edge (edges are
		// indexed by source and by target in PowerGraph), plus M|V|
		// in-flight gather/sync messages (12 B each, amortized).
		var replicas int64
		for v := uint32(0); v < g.NumVertices; v++ {
			if replicaOn[j][v] {
				replicas++
			}
		}
		res.MemoryPerServer[j] = replicas*20 + int64(len(edges[j]))*16 + replicas*12
		return collectValues(node, masters, vals, res.Values)
	})
	if runErr != nil {
		return nil, runErr
	}
	finish(res, stepDur, setup, time.Since(loopStart), cl)
	return res, nil
}
