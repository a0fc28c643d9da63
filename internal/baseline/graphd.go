package baseline

import (
	"encoding/binary"
	"math"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/graph"
)

// RunGraphD executes alg on el with the GraphD model (§II, [18]): the same
// hash edge-cut and message semantics as Pregel+, but out-of-core. Each
// server keeps only vertex states in memory; its out-adjacency lists live in
// a local disk file that is streamed once per superstep, and outgoing
// messages are first spooled to a local disk file, then read back, combined
// and transmitted. Per superstep the disk traffic is O(2|E|) read plus
// O(|E|) write (Table III), which is what makes GraphD slow on the paper's
// hard disks.
func RunGraphD(el *graph.EdgeList, alg Alg, cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	g, _, _ := info(el)
	n := cfg.NumServers

	workDir := cfg.WorkDir
	if workDir == "" {
		dir, err := os.MkdirTemp("", "graphd-run-")
		if err != nil {
			return nil, err
		}
		workDir = dir
		defer os.RemoveAll(dir)
	}
	stores, err := newStores(workDir, n, cfg.Disk)
	if err != nil {
		return nil, err
	}

	setupStart := time.Now()
	// Spool each server's out-adjacency to its local disk, grouped by
	// source vertex: records of (src, dst, weight).
	edgeBufs := make([][]byte, n)
	for _, e := range el.Edges {
		j := int(e.Src) % n
		var rec [12]byte
		binary.LittleEndian.PutUint32(rec[0:], e.Src)
		binary.LittleEndian.PutUint32(rec[4:], e.Dst)
		binary.LittleEndian.PutUint32(rec[8:], math.Float32bits(e.W))
		edgeBufs[j] = append(edgeBufs[j], rec[:]...)
	}
	for j := range stores {
		if err := stores[j].Write("edges", edgeBufs[j]); err != nil {
			return nil, err
		}
		edgeBufs[j] = nil
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
		vals := make([]float64, g.NumVertices)
		changed := make([]bool, g.NumVertices) // frontier membership, local slots only
		var locals []uint32
		for v := uint32(j); v < g.NumVertices; v += uint32(n) {
			vals[v] = alg.Init(v, g)
			changed[v] = true
			locals = append(locals, v)
		}

		for step := 0; step < cfg.MaxSupersteps; step++ {
			start := time.Now()

			// Stream the edge file from disk, generating raw messages into
			// an on-disk spool (GraphD "stores |E| messages on disk at
			// sender side").
			edgeData, err := stores[j].Read("edges")
			if err != nil {
				return err
			}
			var spool []byte
			for off := 0; off < len(edgeData); off += 12 {
				src := binary.LittleEndian.Uint32(edgeData[off:])
				if alg.FrontierBased && !changed[src] {
					continue
				}
				if vals[src] == alg.Identity {
					continue
				}
				dst := binary.LittleEndian.Uint32(edgeData[off+4:])
				w := math.Float32frombits(binary.LittleEndian.Uint32(edgeData[off+8:]))
				m := alg.Emit(src, vals[src], float64(w), g)
				var rec [12]byte
				binary.LittleEndian.PutUint32(rec[0:], dst)
				binary.LittleEndian.PutUint64(rec[4:], math.Float64bits(m))
				spool = append(spool, rec[:]...)
			}
			if err := stores[j].Write("msgspool", spool); err != nil {
				return err
			}

			// Read the spool back, combine per destination server, send.
			spool, err = stores[j].Read("msgspool")
			if err != nil {
				return err
			}
			outMaps := make([]map[uint32]float64, n)
			for d := range outMaps {
				outMaps[d] = make(map[uint32]float64)
			}
			for off := 0; off < len(spool); off += 12 {
				dst := binary.LittleEndian.Uint32(spool[off:])
				m := math.Float64frombits(binary.LittleEndian.Uint64(spool[off+4:]))
				d := int(dst) % n
				if prev, ok := outMaps[d][dst]; ok {
					outMaps[d][dst] = alg.Combine(prev, m)
				} else {
					outMaps[d][dst] = m
				}
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

			// Apply.
			updated := 0
			for _, v := range locals {
				acc, has := incoming[v]
				if !has {
					acc = alg.Identity
				}
				old := vals[v]
				nv := alg.Apply(v, old, acc, has, g)
				changed[v] = nv != old
				if nv != old {
					vals[v] = nv
					updated++
				}
			}

			total, err := exchangeCount(node, updated)
			if err != nil {
				return err
			}
			stepDur[j] = append(stepDur[j], time.Since(start))
			node.Barrier()
			if total == 0 {
				break
			}
		}

		// Table III: GraphD keeps only O(|V|) vertex state in memory; edges
		// and spooled messages live on disk. Receive digest buffer is small.
		res.MemoryPerServer[j] = int64(len(locals))*20 + int64(g.NumVertices) /* changed bits */ +
			int64(g.NumVertices)*8/int64(n)
		return collectValues(node, locals, vals, res.Values)
	})
	if runErr != nil {
		return nil, runErr
	}
	finish(res, stepDur, setup, time.Since(loopStart), cl)
	for _, s := range stores {
		c := s.Counters()
		res.DiskReadBytes += c.ReadBytes
		res.DiskWriteBytes += c.WriteBytes
	}
	return res, nil
}
