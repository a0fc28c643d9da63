// Package baseline implements simplified but faithful versions of the four
// distributed graph processing systems the paper compares against (§II):
//
//   - Pregel+ (pregel.go): in-memory Pregel with hash edge-cut partitioning
//     and sender-side message combining;
//   - GraphD (graphd.go): out-of-core Pregel that streams its edge lists and
//     message logs through local disk every superstep;
//   - PowerGraph / PowerLyra (gas.go): in-memory GAS with vertex-cut
//     partitioning, master/mirror replicas, and an optional hybrid-cut
//     placement approximating PowerLyra;
//   - Chaos (chaos.go): edge-centric scatter/gather/apply over streaming
//     partitions whose storage is spread over the whole cluster, so all
//     I/O crosses the network.
//
// Each engine reproduces the cost profile of Table III with real data
// movement over the same cluster/disk substrates GraphH uses, and each
// produces results identical to the sequential oracles, so the comparative
// experiments (Figures 1, 9, 10) measure honest implementations rather than
// stubs.
package baseline

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/disk"
	"repro/internal/graph"
)

// Info is the read-only graph context handed to algorithm callbacks.
type Info struct {
	NumVertices uint32
	NumEdges    int
	OutDeg      []uint32
}

// Alg is a vertex algorithm expressed in message-passing form, the common
// denominator of the Pregel and GAS models. One spec drives all four
// baseline engines.
type Alg struct {
	// Name labels experiment output.
	Name string
	// Init returns vertex v's initial value.
	Init func(v uint32, g *Info) float64
	// Identity is the combiner's identity element.
	Identity float64
	// Combine merges two messages/accumulator values (sum, min, ...).
	Combine func(a, b float64) float64
	// Emit computes the message sent along edge (u,v,w) given u's value.
	Emit func(u uint32, val, w float64, g *Info) float64
	// Apply folds the combined messages into the old value. hasAcc is
	// false when the vertex received no message this superstep.
	Apply func(v uint32, old, acc float64, hasAcc bool, g *Info) float64
	// FrontierBased marks traversal algorithms: only vertices whose value
	// changed in the previous superstep send messages, and the program
	// terminates when the frontier empties. Non-frontier algorithms (e.g.
	// PageRank) make every vertex send every superstep and stop when no
	// value changes or the superstep budget runs out.
	FrontierBased bool
}

// PageRankAlg mirrors Algorithm 6 in message-passing form.
func PageRankAlg() Alg {
	return Alg{
		Name:     "pagerank",
		Init:     func(v uint32, g *Info) float64 { return 1 / float64(g.NumVertices) },
		Identity: 0,
		Combine:  func(a, b float64) float64 { return a + b },
		Emit: func(u uint32, val, w float64, g *Info) float64 {
			return val / float64(g.OutDeg[u])
		},
		Apply: func(v uint32, old, acc float64, hasAcc bool, g *Info) float64 {
			return 0.15/float64(g.NumVertices) + 0.85*acc
		},
	}
}

// SSSPAlg mirrors Algorithm 7 in message-passing form.
func SSSPAlg(source uint32) Alg {
	return Alg{
		Name: "sssp",
		Init: func(v uint32, g *Info) float64 {
			if v == source {
				return 0
			}
			return math.Inf(1)
		},
		Identity: math.Inf(1),
		Combine:  math.Min,
		Emit:     func(u uint32, val, w float64, g *Info) float64 { return val + w },
		Apply: func(v uint32, old, acc float64, hasAcc bool, g *Info) float64 {
			if hasAcc && acc < old {
				return acc
			}
			return old
		},
		FrontierBased: true,
	}
}

// BFSAlg is SSSPAlg with unit edge weights.
func BFSAlg(source uint32) Alg {
	a := SSSPAlg(source)
	a.Name = "bfs"
	a.Emit = func(u uint32, val, w float64, g *Info) float64 { return val + 1 }
	return a
}

// WCCAlg propagates minimum labels; the input must be symmetrized.
func WCCAlg() Alg {
	return Alg{
		Name:     "wcc",
		Init:     func(v uint32, g *Info) float64 { return float64(v) },
		Identity: math.Inf(1),
		Combine:  math.Min,
		Emit:     func(u uint32, val, w float64, g *Info) float64 { return val },
		Apply: func(v uint32, old, acc float64, hasAcc bool, g *Info) float64 {
			if hasAcc && acc < old {
				return acc
			}
			return old
		},
		FrontierBased: true,
	}
}

// Config describes a baseline deployment on the shared substrates.
type Config struct {
	// NumServers is the cluster size.
	NumServers int
	// Transport selects the cluster substrate.
	Transport cluster.TransportKind
	// NetBandwidth throttles each server's NIC when positive.
	NetBandwidth int64
	// Disk models local storage for the out-of-core engines.
	Disk disk.Config
	// WorkDir hosts scratch files for out-of-core engines; empty = temp.
	WorkDir string
	// MaxSupersteps bounds non-frontier algorithms. Default 30.
	MaxSupersteps int
	// Partitions is the streaming partition count for Chaos; default 4×N.
	Partitions int
	// Placement selects the GAS edge placement (PowerGraph vs PowerLyra).
	Placement PlacementMode
	// HighDegreeThreshold is PowerLyra's hybrid-cut cutoff; default 100.
	HighDegreeThreshold uint32
}

func (c Config) normalized() Config {
	if c.NumServers <= 0 {
		c.NumServers = 1
	}
	if c.MaxSupersteps <= 0 {
		c.MaxSupersteps = 30
	}
	if c.Partitions <= 0 {
		c.Partitions = 4 * c.NumServers
	}
	if c.HighDegreeThreshold == 0 {
		c.HighDegreeThreshold = 100
	}
	return c
}

// PlacementMode selects the GAS engine's edge placement strategy.
type PlacementMode int

const (
	// RandomVertexCut hashes each edge to a server (PowerGraph-style).
	RandomVertexCut PlacementMode = iota
	// HybridCut places low-in-degree vertices' in-edges on the target's
	// master and hashes only high-degree vertices' in-edges
	// (PowerLyra-style), reducing the replication factor.
	HybridCut
)

// String names the placement for experiment output.
func (p PlacementMode) String() string {
	if p == HybridCut {
		return "hybrid-cut"
	}
	return "random-vertex-cut"
}

// Result is the common outcome type of all baseline engines.
type Result struct {
	// Values is the final value of every vertex.
	Values []float64
	// Supersteps executed (including the final quiet one, if any).
	Supersteps int
	// Converged reports whether the run stopped by itself.
	Converged bool
	// Duration is the superstep-loop wall time; SetupDuration the
	// partitioning/loading time (the paper excludes it from averages).
	Duration      time.Duration
	SetupDuration time.Duration
	// StepDurations has one entry per superstep (max over servers).
	StepDurations []time.Duration
	// MemoryPerServer is the analytic per-server footprint in bytes,
	// following the Table III accounting for the respective system.
	MemoryPerServer []int64
	// NetBytes is total network traffic, DiskReadBytes/DiskWriteBytes the
	// total disk traffic (zero for the in-memory engines).
	NetBytes       int64
	DiskReadBytes  int64
	DiskWriteBytes int64
	// ReplicationFactor is the average number of replicas per vertex (GAS
	// engines only; 1 elsewhere).
	ReplicationFactor float64
}

// AvgStepDuration mirrors the paper's reporting convention: the mean
// superstep time excluding the first superstep when possible.
func (r *Result) AvgStepDuration() time.Duration {
	if len(r.StepDurations) == 0 {
		return 0
	}
	ds := r.StepDurations
	if len(ds) > 1 {
		ds = ds[1:]
	}
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return total / time.Duration(len(ds))
}

// PeakMemoryBytes returns the largest per-server footprint.
func (r *Result) PeakMemoryBytes() int64 {
	var peak int64
	for _, m := range r.MemoryPerServer {
		if m > peak {
			peak = m
		}
	}
	return peak
}

// TotalMemoryBytes sums per-server footprints.
func (r *Result) TotalMemoryBytes() int64 {
	var total int64
	for _, m := range r.MemoryPerServer {
		total += m
	}
	return total
}

// pair is one combined message on the wire: target vertex and value.
type pair struct {
	id  uint32
	val float64
}

// encodePairs serializes combined messages: 4-byte count then 12-byte pairs.
func encodePairs(ps []pair) []byte {
	buf := make([]byte, 4+12*len(ps))
	binary.LittleEndian.PutUint32(buf, uint32(len(ps)))
	for i, p := range ps {
		binary.LittleEndian.PutUint32(buf[4+12*i:], p.id)
		binary.LittleEndian.PutUint64(buf[4+12*i+4:], math.Float64bits(p.val))
	}
	return buf
}

// decodePairs parses encodePairs output.
func decodePairs(buf []byte) ([]pair, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("baseline: message too short")
	}
	n := binary.LittleEndian.Uint32(buf)
	if uint64(len(buf)) != 4+12*uint64(n) {
		return nil, fmt.Errorf("baseline: message length %d, header says %d pairs", len(buf), n)
	}
	ps := make([]pair, n)
	for i := range ps {
		ps[i].id = binary.LittleEndian.Uint32(buf[4+12*i:])
		ps[i].val = math.Float64frombits(binary.LittleEndian.Uint64(buf[4+12*i+4:]))
	}
	return ps, nil
}

// recvPairs receives one pair message from every peer and hands each pair to
// fn, message by message in arrival order. Decoded pairs never alias the
// receive buffer, which is recycled after each message.
func recvPairs(node *cluster.Node, fn func(p pair)) error {
	return node.RecvStream(node.NumNodes()-1, func(_ int, m []byte) error {
		ps, err := decodePairs(m)
		if err != nil {
			return err
		}
		for _, p := range ps {
			fn(p)
		}
		return nil
	})
}

// info builds the algorithm context from an edge list.
func info(el *graph.EdgeList) (*Info, []uint32, []uint32) {
	in, out := el.Degrees()
	return &Info{NumVertices: el.NumVertices, NumEdges: el.NumEdges(), OutDeg: out}, in, out
}

// newStores creates one throttled local disk store per server under dir.
func newStores(dir string, n int, cfg disk.Config) ([]*disk.Store, error) {
	stores := make([]*disk.Store, n)
	for i := range stores {
		s, err := disk.NewStore(fmt.Sprintf("%s/server-%d", dir, i), cfg)
		if err != nil {
			return nil, err
		}
		stores[i] = s
	}
	return stores, nil
}
