// Package core implements GraphH's MPI-based graph processing engine (MPE)
// and its GAB (Gather–Apply–Broadcast) computation model (§III-C of the
// paper).
//
// In GAB every vertex keeps a replica on every server (the All-in-All
// policy of §IV-A), each worker loads one CSR tile into memory at a time,
// and a vertex update runs three functions: Gather folds information along
// the vertex's in-edges reading source-vertex replicas from local memory
// (never the network), Apply produces the new vertex value from the
// accumulator, and Broadcast ships changed values to the other replicas.
// Supersteps are bulk-synchronous (Algorithm 5); the program terminates when
// a superstep updates no vertex.
//
// The engine is session-oriented (session.go): Open boots the cluster and
// persists tiles once, Submit runs any number of programs back-to-back
// against the warm tile stores and edge caches with per-job knobs and
// step-edge context cancellation, Close tears everything down. Engine.Run
// is a thin Open→Submit→Close wrapper.
//
// The superstep loop is pipelined (§IV-C): workers enqueue encoded update
// batches on the cluster.Sender and move to their next tile while a
// concurrent receive loop decodes foreign batches into per-sender staging.
// Determinism invariant: staged updates are applied only after local
// compute finishes, in sender-rank order, so every Gather reads
// step-(k−1) values and results are bit-identical to a serial run. The
// loop also notifies the edge cache at every superstep boundary
// (cache.AdvanceEpoch) — the clock that drives the superstep-aware CLOCK
// eviction policy of §IV-B. Sparse supersteps are frontier-driven
// (frontier.go): tiles none of whose sources changed are skipped, and loaded
// tiles re-gather only the rows with a changed in-neighbour. Steady-state
// supersteps allocate nothing (pinned by TestProcessTileSteadyStateAllocs
// and TestRunStepSteadyStateAllocs).
package core

import "math"

// Graph is the read-only per-server context handed to vertex programs: the
// global vertex count and the degree arrays that SPE persisted (§III-B-1).
type Graph struct {
	NumVertices uint32
	NumEdges    int
	OutDeg      []uint32
	InDeg       []uint32
	Weighted    bool
}

// Program is a GAB vertex program (§III-C-2). GraphH "only requires users
// to implement the gather and apply functions", plus the initializer that
// Algorithms 6 and 7 call initial_vertex_states. Gather here works on a
// whole row: the engine calls it once per target vertex with all of that
// vertex's in-edges in the current tile, and the program folds them itself,
// so the per-edge work runs without an interface call per edge.
//
// Implementations must be pure functions of their arguments: the engine
// invokes them concurrently from many workers on many simulated servers.
//
// Idempotence contract. With tile skipping on (the default; §III-C-4), the
// engine does not re-run a vertex whose in-neighbours all kept their value
// in the previous superstep — neither when it skips the vertex's whole tile
// nor when it gathers a loaded tile selectively — and leaves its value as it
// is. A program must therefore satisfy, for every vertex v and accumulator
// acc = Gather(...) over unchanged source values,
//
//	Apply(v, acc, Apply(v, acc, old)) == Apply(v, acc, old)
//
// i.e. re-applying the same gathered information to the value it already
// produced changes nothing. Every update rule that is a function of acc
// alone (PageRank) or a monotone merge of acc into old (min for
// SSSP/BFS/WCC, a tolerance clamp around a function of acc) qualifies. A
// rule that keeps integrating old — old*0.5 + acc, a counter — does not, and
// must run with skipping disabled (Config.BloomSkip = false,
// Options.DisableBloomSkip), which sweeps every row of every tile each
// superstep.
type Program interface {
	// Name identifies the program in experiment output.
	Name() string
	// InitValue returns the initial value of vertex v.
	InitValue(v uint32, g *Graph) float64
	// Gather folds every in-edge of one target vertex and returns the
	// accumulator. srcs are the edges' sources in tile order; w[i] is edge
	// i's value, and w is nil on an unweighted graph, where every edge value
	// is 1. vals.Get(src) is the current value of the source replica. The
	// fold starts from the program's own identity (0 for PageRank's sum,
	// +Inf for SSSP's min), which is also what an empty row returns, and
	// must visit the edges in the order given: that order is what keeps
	// results bit-identical across server counts and runs.
	Gather(srcs []uint32, w []float32, vals *Replicas, g *Graph) float64
	// Apply combines the accumulator with the vertex's previous value and
	// returns the updated value. The engine broadcasts the result only if
	// it differs from the previous value.
	Apply(v uint32, acc, old float64, g *Graph) float64
}

// ReplicationPolicy selects how vertex replicas are stored on each server
// (§IV-A).
type ReplicationPolicy int

const (
	// AllInAll gives every vertex a replica on every server: dense arrays,
	// no indexing overhead, the GraphH default.
	AllInAll ReplicationPolicy = iota
	// OnDemand stores only the vertices that appear in a server's assigned
	// tiles, at the cost of an id→slot index on every access.
	OnDemand
)

// String names the policy for experiment output.
func (p ReplicationPolicy) String() string {
	if p == OnDemand {
		return "on-demand"
	}
	return "all-in-all"
}

// Replicas holds one server's vertex replicas — the values a program's
// Gather reads through Get. With the AllInAll policy index is nil and
// values[v] is vertex v's replica; with OnDemand only member vertices have
// slots and every access goes through the index.
type Replicas struct {
	values []float64
	index  map[uint32]uint32 // nil for AllInAll
}

// NewReplicas returns All-in-All replicas over values: values[v] is vertex
// v's replica. Outside the engine it lets a program's Gather be run on
// chosen source values.
func NewReplicas(values []float64) *Replicas {
	return &Replicas{values: values}
}

// newOnDemandState builds the member set from the vertices the server
// actually touches: all sources and targets of its assigned tiles.
func newOnDemandState(members []uint32) *Replicas {
	s := &Replicas{
		values: make([]float64, len(members)),
		index:  make(map[uint32]uint32, len(members)),
	}
	for i, v := range members {
		s.index[v] = uint32(i)
	}
	return s
}

// has reports whether the server holds a replica of v.
func (s *Replicas) has(v uint32) bool {
	if s.index == nil {
		return v < uint32(len(s.values))
	}
	_, ok := s.index[v]
	return ok
}

// Get returns v's replica value — the source values a Gather folds. The
// caller must ensure membership: with AllInAll every vertex is a member, and
// with OnDemand every source and target of the server's tiles is.
func (s *Replicas) Get(v uint32) float64 {
	if s.index == nil {
		return s.values[v]
	}
	return s.values[s.index[v]]
}

// set overwrites v's replica value if the server holds one.
func (s *Replicas) set(v uint32, val float64) {
	if s.index == nil {
		s.values[v] = val
		return
	}
	if i, ok := s.index[v]; ok {
		s.values[i] = val
	}
}

// numSlots returns the number of replicas stored.
func (s *Replicas) numSlots() int { return len(s.values) }

// memoryBytes returns the analytic footprint of the state using the paper's
// accounting (§IV-A): AllInAll spends Size(Vertex,Msg) = 8-byte value +
// 8-byte message slot per vertex; OnDemand additionally pays a 4-byte id
// plus a 4-byte slot per member for the index.
func (s *Replicas) memoryBytes() int64 {
	per := int64(16)
	if s.index != nil {
		per += 8
	}
	return per * int64(len(s.values))
}

// Inf is the initial "unreached" value used by traversal programs.
var Inf = math.Inf(1)
