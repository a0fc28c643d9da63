package baseline

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/graph"
)

// RunPregel executes alg on el with the Pregel+ model (§II-B-1, §II-C-1):
// hash-based edge-cut partitioning (vertex v and its out-adjacency list live
// on server v mod N, entirely in memory), message passing along out-edges,
// and sender-side message combining. Memory per server follows Table III:
// O(|V|/N) vertex states, O(|E|/N) edges, combined messages.
func RunPregel(el *graph.EdgeList, alg Alg, cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	g, _, _ := info(el)
	n := cfg.NumServers

	setupStart := time.Now()
	// Per-server out-adjacency for local vertices (v mod N).
	type edge struct {
		src, dst uint32
		w        float32
	}
	adj := make([][]edge, n)
	for _, e := range el.Edges {
		j := int(e.Src) % n
		adj[j] = append(adj[j], edge{src: e.Src, dst: e.Dst, w: e.W})
	}
	for j := range adj {
		sort.SliceStable(adj[j], func(a, b int) bool { return adj[j][a].src < adj[j][b].src })
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
		ReplicationFactor: 1,
	}
	setup := time.Since(setupStart)

	stepDur := make([][]time.Duration, n)
	loopStart := time.Now()
	runErr := cl.Run(func(node *cluster.Node) error {
		j := node.ID()
		vals := make([]float64, g.NumVertices) // dense for O(1) access; accounted per Table III
		var locals []uint32
		for v := uint32(j); v < g.NumVertices; v += uint32(n) {
			vals[v] = alg.Init(v, g)
			locals = append(locals, v)
		}
		frontier := locals // superstep 0: every non-identity vertex sends
		var maxMsgEntries int

		for step := 0; step < cfg.MaxSupersteps; step++ {
			start := time.Now()
			// Sender phase with per-destination-server combining.
			outMaps := make([]map[uint32]float64, n)
			for d := range outMaps {
				outMaps[d] = make(map[uint32]float64)
			}
			send := func(v uint32, val float64) {
				lo := sort.Search(len(adj[j]), func(i int) bool { return adj[j][i].src >= v })
				for i := lo; i < len(adj[j]) && adj[j][i].src == v; i++ {
					e := adj[j][i]
					m := alg.Emit(v, val, float64(e.w), g)
					d := int(e.dst) % n
					if prev, ok := outMaps[d][e.dst]; ok {
						outMaps[d][e.dst] = alg.Combine(prev, m)
					} else {
						outMaps[d][e.dst] = m
					}
				}
			}
			for _, v := range frontier {
				if vals[v] == alg.Identity {
					continue // nothing useful to say yet (e.g. unreached SSSP vertex)
				}
				send(v, vals[v])
			}

			entries := 0
			for d := 0; d < n; d++ {
				entries += len(outMaps[d])
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
			if entries > maxMsgEntries {
				maxMsgEntries = entries
			}

			// Receiver phase: merge own and remote combined messages.
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

			// Apply phase.
			updated := 0
			var next []uint32
			if alg.FrontierBased {
				for v, acc := range incoming {
					old := vals[v]
					nv := alg.Apply(v, old, acc, true, g)
					if nv != old {
						vals[v] = nv
						next = append(next, v)
						updated++
					}
				}
				sort.Slice(next, func(a, b int) bool { return next[a] < next[b] })
			} else {
				for _, v := range locals {
					acc, has := incoming[v]
					if !has {
						acc = alg.Identity
					}
					old := vals[v]
					nv := alg.Apply(v, old, acc, has, g)
					if nv != old {
						vals[v] = nv
						updated++
					}
				}
				next = locals
			}

			// Global termination consensus.
			total, err := exchangeCount(node, updated)
			if err != nil {
				return err
			}
			stepDur[j] = append(stepDur[j], time.Since(start))
			node.Barrier()
			if total == 0 {
				break
			}
			frontier = next
		}

		// Table III accounting: 20 B per local vertex state, 8 B per local
		// edge (id+value in the adjacency list), 12 B per combined message
		// entry at peak, plus the |V|-slot receive digest for Pregel+.
		res.MemoryPerServer[j] = int64(len(locals))*20 + int64(len(adj[j]))*8 +
			int64(maxMsgEntries)*12 + int64(g.NumVertices)*8/int64(n)

		// Collect results on rank 0: everyone ships its local values.
		return collectValues(node, locals, vals, res.Values)
	})
	if runErr != nil {
		return nil, runErr
	}
	finish(res, stepDur, setup, time.Since(loopStart), cl)
	return res, nil
}

// exchangeCount sums a per-server integer across the cluster. The leading
// barrier separates the preceding data messages from the count messages:
// without it a fast server's count broadcast could be consumed by a slow
// server still draining its data inbox.
func exchangeCount(node *cluster.Node, local int) (int, error) {
	if node.NumNodes() == 1 {
		return local, nil
	}
	node.Barrier()
	buf := []byte{
		byte(local), byte(local >> 8), byte(local >> 16), byte(local >> 24),
		byte(local >> 32), byte(local >> 40), byte(local >> 48), byte(local >> 56),
	}
	if err := node.Broadcast(buf); err != nil {
		return 0, err
	}
	total := local
	err := node.RecvStream(node.NumNodes()-1, func(_ int, m []byte) error {
		if len(m) != 8 {
			return fmt.Errorf("baseline: bad count message length %d", len(m))
		}
		v := int(m[0]) | int(m[1])<<8 | int(m[2])<<16 | int(m[3])<<24 |
			int(m[4])<<32 | int(m[5])<<40 | int(m[6])<<48 | int(m[7])<<56
		total += v
		return nil
	})
	return total, err
}

// collectValues ships each server's (vertexID, value) pairs to rank 0,
// which writes them into out.
func collectValues(node *cluster.Node, ids []uint32, vals []float64, out []float64) error {
	if node.ID() != 0 {
		ps := make([]pair, len(ids))
		for i, v := range ids {
			ps[i] = pair{id: v, val: vals[v]}
		}
		if err := node.Send(0, encodePairs(ps)); err != nil {
			return err
		}
		node.Barrier()
		return nil
	}
	for _, v := range ids {
		out[v] = vals[v]
	}
	if node.NumNodes() > 1 {
		if err := recvPairs(node, func(p pair) { out[p.id] = p.val }); err != nil {
			return err
		}
	}
	node.Barrier()
	return nil
}

// finish merges per-server step durations (max per step) and cluster
// metrics into the result.
func finish(res *Result, stepDur [][]time.Duration, setup, loop time.Duration, cl *cluster.Cluster) {
	numSteps := 0
	for _, ds := range stepDur {
		if len(ds) > numSteps {
			numSteps = len(ds)
		}
	}
	res.StepDurations = make([]time.Duration, numSteps)
	for _, ds := range stepDur {
		for i, d := range ds {
			if d > res.StepDurations[i] {
				res.StepDurations[i] = d
			}
		}
	}
	res.Supersteps = numSteps
	res.SetupDuration = setup
	res.Duration = loop
	res.NetBytes = cl.TotalMetrics().BytesSent
}
