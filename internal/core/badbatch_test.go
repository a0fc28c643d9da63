package core

// A received update batch is untrusted input: a peer (or a corrupted TCP
// frame) can claim a vertex range past the graph. Both receives that absorb
// batches — the superstep's counted receive and rank 0's On-Demand result
// collection — must turn such a frame into an error that names the sender
// and the tile, instead of indexing the replicas or the result vector out of
// range and crashing the process. An end-of-step frame can also be cut
// short, announce more tile frames than the graph has tiles, or announce
// fewer than arrived before it; the counted receive must reject it with an
// error naming the sender, not trust it.

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/graph"
	"repro/internal/tile"
)

// newRankZero builds rank 0 of a two-server cluster over p, setup done and
// vertex state initialised. Node 1 of the returned cluster plays the peer:
// the test sends its frames by hand.
func newRankZero(t *testing.T, p *tile.Partition, repl ReplicationPolicy) (*server, *cluster.Cluster) {
	t.Helper()
	cfg := DefaultConfig(2)
	cfg.WorkersPerServer = 1
	cfg.WorkDir = t.TempDir()
	cfg.Replication = repl
	cfg = cfg.normalized()
	g, numTiles, fetch, err := prepareInput(Input{Partition: p})
	if err != nil {
		t.Fatal(err)
	}
	assign, err := tile.Assign(numTiles, 2)
	if err != nil {
		t.Fatal(err)
	}
	owner := make([]int, numTiles)
	for j, ts := range assign.TilesOf {
		for _, i := range ts {
			owner[i] = j
		}
	}
	// The failure timeout bounds a receive that wrongly accepts the batch
	// and then waits for the peer's real ones.
	cl, err := cluster.New(cluster.Config{NumNodes: 2, FailureTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	sv := &server{
		cfg:       cfg,
		node:      cl.Node(0),
		graph:     g,
		fetch:     fetch,
		tiles:     assign.TilesOf[0],
		total:     numTiles,
		prog:      smoothProg{},
		ctx:       context.Background(),
		maxSteps:  cfg.MaxSupersteps,
		work:      cfg.WorkDir,
		baseOwner: owner,
		result: &Result{
			Values:  make([]float64, g.NumVertices),
			Servers: make([]ServerStats, 2),
		},
		shared: new(nodeShared),
	}
	if err := sv.setup(); err != nil {
		t.Fatal(err)
	}
	sv.initJobState()
	return sv, cl
}

// pastGraphBatch encodes a batch for tile 1 — owned by server 1 — whose
// range and one update lie past the graph's last vertex.
func pastGraphBatch(t *testing.T, head []byte, numVertices uint32) []byte {
	t.Helper()
	b := comm.Batch{TileID: 1, Lo: numVertices, Hi: numVertices + 8,
		Updates: []comm.Update{{ID: numVertices + 3, Value: 1}}}
	msg, _, err := comm.AppendEncode(head, &b, comm.Options{Codec: compress.Snappy})
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

// wantBatchError fails unless err rejects the batch and names its sender
// (server 1) and its tile (1).
func wantBatchError(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("a batch past the graph was accepted")
	}
	if msg := err.Error(); !strings.Contains(msg, "from server 1") || !strings.Contains(msg, "tile 1") {
		t.Fatalf("error %q does not name the sender and the tile", msg)
	}
}

func TestReceiveRejectsBatchPastGraph(t *testing.T) {
	el := graph.GenerateRMAT(graph.DefaultRMAT(), 256, 2048, 5)
	p, err := tile.Split(el, tile.Options{TileSize: el.NumEdges()/6 + 1})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("step", func(t *testing.T) {
		sv, cl := newRankZero(t, p, AllInAll)
		const step = 3
		frame := pastGraphBatch(t, sv.stepHeader(nil, step), sv.graph.NumVertices)
		if err := cl.Node(1).Send(0, frame); err != nil {
			t.Fatal(err)
		}
		wantBatchError(t, sv.receiveStep(context.Background(), step))
	})

	// End-of-step frames: a header cut short, a streamed-frame count past
	// the graph's tile count, a merged batch past the graph, and a count
	// short of the tile frames that preceded it.
	encode := func(head []byte, b comm.Batch) []byte {
		msg, _, err := comm.AppendEncode(head, &b, comm.Options{Codec: compress.Snappy})
		if err != nil {
			t.Fatal(err)
		}
		return msg
	}
	endFrames := []struct {
		name   string
		frames func(sv *server, step int) [][]byte
	}{
		{"end-short-header", func(sv *server, step int) [][]byte {
			return [][]byte{sv.endHeader(nil, step, 0)[:endHeaderSize-1]}
		}},
		{"end-count-past-graph", func(sv *server, step int) [][]byte {
			return [][]byte{encode(sv.endHeader(nil, step, sv.total+1), comm.Batch{})}
		}},
		{"end-batch-past-graph", func(sv *server, step int) [][]byte {
			return [][]byte{pastGraphBatch(t, sv.endHeader(nil, step, 0), sv.graph.NumVertices)}
		}},
		{"end-count-short", func(sv *server, step int) [][]byte {
			tl := p.Tiles[1]
			return [][]byte{
				encode(sv.stepHeader(nil, step), comm.Batch{TileID: 1, Lo: tl.TargetLo, Hi: tl.TargetHi}),
				encode(sv.endHeader(nil, step, 0), comm.Batch{}),
			}
		}},
	}
	for _, tc := range endFrames {
		t.Run(tc.name, func(t *testing.T) {
			sv, cl := newRankZero(t, p, AllInAll)
			const step = 3
			for _, frame := range tc.frames(sv, step) {
				if err := cl.Node(1).Send(0, frame); err != nil {
					t.Fatal(err)
				}
			}
			err := sv.receiveStep(context.Background(), step)
			if err == nil {
				t.Fatal("a malformed end-of-step frame was accepted")
			}
			if !strings.Contains(err.Error(), "from server 1") {
				t.Fatalf("error %q does not name the sender", err)
			}
		})
	}

	t.Run("on-demand-result", func(t *testing.T) {
		sv, cl := newRankZero(t, p, OnDemand)
		if err := cl.Node(1).Send(0, pastGraphBatch(t, nil, sv.graph.NumVertices)); err != nil {
			t.Fatal(err)
		}
		wantBatchError(t, sv.collectResult())
	})
}

// FuzzDecodeEndHeader checks the end-of-step header parse on arbitrary
// bytes: it never panics, rejects anything shorter than the header or not
// starting with the end-frame magic, and whatever it accepts re-encodes to
// the same bytes, with the payload aliasing the tail.
func FuzzDecodeEndHeader(f *testing.F) {
	var sv server
	f.Add([]byte{})
	f.Add([]byte{endFrameMagic})
	f.Add(sv.endHeader(nil, 3, 0)[:endHeaderSize-1])
	f.Add(sv.endHeader(nil, 0, 0))
	f.Add(sv.endHeader(nil, 255, math.MaxUint32))
	f.Add(append(sv.endHeader(nil, 7, 39), 0xB7, 1, 2, 3))
	f.Add(append(sv.stepHeader(nil, 7), 0xB7, 1, 2, 3))
	f.Fuzz(func(t *testing.T, frame []byte) {
		step, streamed, payload, err := decodeEndHeader(frame)
		if err != nil {
			return
		}
		if len(frame) < endHeaderSize || frame[0] != endFrameMagic {
			t.Fatalf("accepted malformed frame %x", frame)
		}
		if !bytes.Equal(payload, frame[endHeaderSize:]) {
			t.Fatalf("payload mismatch")
		}
		re := append(sv.endHeader(nil, int(step), int(streamed)), payload...)
		if !bytes.Equal(re, frame) {
			t.Fatalf("re-encode mismatch: %x vs %x", re, frame)
		}
	})
}
