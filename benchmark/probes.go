package main

import (
	"encoding/json"
	"fmt"
	"time"

	graphh "repro"
	"repro/api"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/csr"
	"repro/internal/disk"
)

// probeInput shapes the layer probes like the workload that just ran: its
// own tiles and result values, its mean batch size and message size, its
// transport and cache configuration.
type probeInput struct {
	part            *graphh.Partitioned
	values          []float64
	updatesPerBatch int // mean updates one tile produced in one superstep
	activePerStep   int // mean vertices updated in one superstep
	wireBytesPerMsg int
	transport       cluster.TransportKind
	cacheMode       compress.Mode
	cachePolicy     cache.Policy
	dir             string
}

// probeTiles bounds how many of the workload's tiles a probe sweeps.
const probeTiles = 8

// perOp times fn in batches of at least 5 ms and returns the fastest
// batch's time per call — the same fast-statistic rule as the gated metrics.
func perOp(fn func()) time.Duration {
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := time.Since(start); d >= 5*time.Millisecond || n >= 1<<24 {
			break
		}
		n *= 4
	}
	best := time.Duration(1<<63 - 1)
	for b := 0; b < 7; b++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		best = min(best, time.Since(start))
	}
	return best / time.Duration(n)
}

func mibPerSec(bytes int, d time.Duration) float64 {
	return float64(bytes) / mib / d.Seconds()
}

// runProbes times single calls into each layer, after the session closed,
// on the workload's own data. These are the per-layer numbers no Result
// counter carries.
func runProbes(in probeInput) (map[string]float64, error) {
	out := make(map[string]float64)
	tiles := in.part.Tiles
	if len(tiles) > probeTiles {
		step := len(tiles) / probeTiles
		picked := make([]*csr.Tile, 0, probeTiles)
		for i := 0; i < probeTiles; i++ {
			picked = append(picked, tiles[i*step])
		}
		tiles = picked
	}

	// csr: encode every picked tile, decode into one reused tile.
	blobs := make([][]byte, len(tiles))
	blobBytes := 0
	for i, t := range tiles {
		blobs[i] = t.AppendEncode(nil)
		blobBytes += len(blobs[i])
	}
	var buf []byte
	out["csr.encode_mb_s"] = mibPerSec(blobBytes, perOp(func() {
		for _, t := range tiles {
			buf = t.AppendEncode(buf[:0])
		}
	}))
	var scratch csr.Tile
	var err error
	out["csr.decode_mb_s"] = mibPerSec(blobBytes, perOp(func() {
		for _, b := range blobs {
			if e := csr.DecodeInto(&scratch, b); e != nil {
				err = e
			}
		}
	}))
	if err != nil {
		return nil, fmt.Errorf("csr probe: %w", err)
	}

	// comm: one batch shaped like the workload's mean batch.
	mid := in.part.Tiles[len(in.part.Tiles)/2]
	span := int(mid.TargetHi - mid.TargetLo)
	k := min(max(in.updatesPerBatch, 1), span)
	batch := comm.Batch{TileID: mid.ID, Lo: mid.TargetLo, Hi: mid.TargetHi, Updates: make([]comm.Update, k)}
	for i := range batch.Updates {
		id := mid.TargetLo + uint32(i*span/k)
		batch.Updates[i] = comm.Update{ID: id, Value: in.values[id]}
	}
	var msg []byte
	enc := perOp(func() {
		var e error
		if msg, _, e = comm.AppendEncode(msg[:0], &batch, comm.Options{Codec: compress.Snappy}); e != nil {
			err = e
		}
	})
	var decoded comm.Batch
	dec := perOp(func() {
		if _, e := comm.DecodeInto(&decoded, msg); e != nil {
			err = e
		}
	})
	if err != nil {
		return nil, fmt.Errorf("comm probe: %w", err)
	}
	out["comm.encode_ns_per_update"] = float64(enc) / float64(k)
	out["comm.decode_ns_per_update"] = float64(dec) / float64(k)

	// compress: snappy over the tile blobs plus the batch's raw body.
	rawMsg, _, err := comm.AppendEncode(nil, &batch, comm.Options{Codec: compress.None})
	if err != nil {
		return nil, fmt.Errorf("comm probe: %w", err)
	}
	plain := append(append([][]byte(nil), blobs...), rawMsg)
	plainBytes := blobBytes + len(rawMsg)
	packed := make([][]byte, len(plain))
	for i, p := range plain {
		if packed[i], err = compress.Snappy.AppendCompress(nil, p); err != nil {
			return nil, fmt.Errorf("compress probe: %w", err)
		}
	}
	out["compress.snappy_enc_mb_s"] = mibPerSec(plainBytes, perOp(func() {
		for _, p := range plain {
			buf, _ = compress.Snappy.AppendCompress(buf[:0], p)
		}
	}))
	out["compress.snappy_dec_mb_s"] = mibPerSec(plainBytes, perOp(func() {
		for _, p := range packed {
			buf, _ = compress.Snappy.AppendDecompress(buf[:0], p)
		}
	}))

	// bloom: the skip test the engine makes per tile and superstep, with as
	// many active vertices as the workload's mean superstep had.
	nv := int(in.part.NumVertices)
	keys := make([]uint32, min(max(in.activePerStep, 1), nv))
	for i := range keys {
		keys[i] = uint32(i * nv / len(keys))
	}
	filtered := 0
	for _, t := range tiles {
		if t.Filter != nil {
			filtered++
		}
	}
	if filtered > 0 {
		matched := 0 // keeps the calls from being optimised away
		d := perOp(func() {
			for _, t := range tiles {
				if t.Filter != nil && t.Filter.ContainsAny(keys) {
					matched++
				}
			}
		})
		out["bloom.contains_any_ns"] = float64(d) / float64(filtered)
		_ = matched
	}

	// cache: a hit served into a reused tile, and a miss loaded from an
	// in-memory blob and offered for admission.
	c, err := cache.NewWithPolicy(1<<40, in.cacheMode, in.cachePolicy)
	if err != nil {
		return nil, fmt.Errorf("cache probe: %w", err)
	}
	for i, t := range tiles {
		if err := c.Put(i, t); err != nil {
			return nil, fmt.Errorf("cache probe: %w", err)
		}
	}
	hit := perOp(func() {
		for i := range tiles {
			if _, ok := c.GetInto(i, &scratch); !ok {
				err = fmt.Errorf("tile %d missing from the probe cache", i)
			}
		}
	})
	miss := perOp(func() {
		for i, b := range blobs {
			c.Remove(i)
			_, e := c.LoadInto(i, &scratch, func(dst *csr.Tile) (*csr.Tile, error) {
				if dst == nil {
					dst = new(csr.Tile)
				}
				return dst, csr.DecodeInto(dst, b)
			})
			if e != nil {
				err = e
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("cache probe: %w", err)
	}
	out["cache.get_hit_us"] = float64(hit) / float64(time.Microsecond) / float64(len(tiles))
	out["cache.load_miss_us"] = float64(miss) / float64(time.Microsecond) / float64(len(tiles))

	// disk: an unthrottled read of one tile blob through the store.
	store, err := disk.NewStore(in.dir, disk.Config{})
	if err != nil {
		return nil, fmt.Errorf("disk probe: %w", err)
	}
	defer store.Close()
	if err := store.Write("probe", blobs[0]); err != nil {
		return nil, fmt.Errorf("disk probe: %w", err)
	}
	out["disk.read_into_us"] = float64(perOp(func() {
		var e error
		if buf, e = store.ReadInto("probe", buf[:0]); e != nil {
			err = e
		}
	})) / float64(time.Microsecond)
	if err != nil {
		return nil, fmt.Errorf("disk probe: %w", err)
	}

	// cluster: barrier rounds and pipelined broadcasts on the workload's
	// transport, at the benchmark's cluster size.
	if out["cluster.barrier_us"], out["cluster.broadcast_mb_s"], err = probeCluster(in.transport, max(in.wireBytesPerMsg, 64)); err != nil {
		return nil, fmt.Errorf("cluster probe: %w", err)
	}

	// api: the JSON encoding of one result value.
	page := api.Values(in.values[:min(len(in.values), 4096)])
	out["api.value_encode_ns"] = float64(perOp(func() {
		if _, e := json.Marshal(page); e != nil {
			err = e
		}
	})) / float64(len(page))
	return out, err
}

func probeCluster(tr cluster.TransportKind, msgBytes int) (barrierUS, broadcastMiBs float64, err error) {
	const rounds, barriers, msgs = 3, 2000, 400
	c, err := cluster.New(cluster.Config{NumNodes: servers, Transport: tr})
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	bestBarrier, bestCast := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for r := 0; r < rounds; r++ {
		start := time.Now()
		if err := c.Run(func(n *cluster.Node) error {
			for i := 0; i < barriers; i++ {
				if err := n.BarrierErr(); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return 0, 0, err
		}
		bestBarrier = min(bestBarrier, time.Since(start))

		start = time.Now()
		if err := c.Run(func(n *cluster.Node) error {
			s := n.NewSender(0)
			defer s.Close()
			for i := 0; i < msgs; i++ {
				b := s.Acquire()
				if cap(b.Data) < msgBytes {
					b.Data = make([]byte, msgBytes)
				}
				b.Data = b.Data[:msgBytes]
				if err := s.Broadcast(b); err != nil {
					return err
				}
			}
			if err := n.RecvStream((servers-1)*msgs, func(int, []byte) error { return nil }); err != nil {
				return err
			}
			if err := s.Flush(); err != nil {
				return err
			}
			return n.BarrierErr()
		}); err != nil {
			return 0, 0, err
		}
		bestCast = min(bestCast, time.Since(start))
	}
	barrierUS = float64(bestBarrier) / float64(time.Microsecond) / barriers
	broadcastMiBs = mibPerSec(servers*(servers-1)*msgs*msgBytes, bestCast)
	return barrierUS, broadcastMiBs, nil
}
