// Package costmodel implements the paper's analytic cost models: the
// per-system memory/network/disk profiles of Table III, the message
// combining ratio η (footnote 3), the vertex-cut replication factor M, and
// the All-in-All vs On-Demand expected memory of §IV-A (Equations 2–5,
// Figure 6a). The models are evaluated for PageRank, the paper's costing
// example.
package costmodel

import (
	"math"
	"time"

	"repro/internal/compress"
)

// GraphParams describes a graph for analytic evaluation. Paper-scale values
// work here — no data is materialized.
type GraphParams struct {
	V      uint64  // |V|
	E      uint64  // |E|
	AvgDeg float64 // |E|/|V|
}

// Params derives GraphParams from raw counts.
func Params(v, e uint64) GraphParams {
	p := GraphParams{V: v, E: e}
	if v > 0 {
		p.AvgDeg = float64(e) / float64(v)
	}
	return p
}

// Eta is the message combining ratio of Pregel+/GraphD (footnote 3):
// η ≈ (1 − e^{−davg/W}) · W/davg, where W is the total worker count across
// the cluster. For EU-2015 (davg 85.7) with 216 workers this gives ≈0.82.
func Eta(avgDeg float64, totalWorkers int) float64 {
	if avgDeg <= 0 || totalWorkers <= 0 {
		return 1
	}
	w := float64(totalWorkers)
	eta := (1 - math.Exp(-avgDeg/w)) * w / avgDeg
	if eta > 1 {
		return 1
	}
	return eta
}

// ReplicationFactor estimates PowerGraph's expected vertex replication
// factor under random vertex-cut: E[M] = (N/|V|)·Σ_v (1 − (1−1/N)^{d(v)}),
// with d the total (in+out) degree.
func ReplicationFactor(inDeg, outDeg []uint32, n int) float64 {
	if n <= 1 || len(inDeg) == 0 {
		return 1
	}
	q := 1 - 1/float64(n)
	var sum float64
	for v := range inDeg {
		d := float64(inDeg[v]) + float64(outDeg[v])
		sum += 1 - math.Pow(q, d)
	}
	return float64(n) * sum / float64(len(inDeg))
}

// PageRank state sizes from §IV-A: All-in-All stores an 8-byte value, an
// 8-byte message slot and a 4-byte out-degree per vertex (20 B); On-Demand
// additionally pays a 4-byte id per stored vertex (24 B).
const (
	AABytesPerVertex = 20
	ODBytesPerVertex = 24
)

// ExpectedODMembers is Equation 5: the expected number of vertex states a
// server holds under the On-Demand policy on a random graph,
// E[|Vi,od|] ≤ (1 − e^{−davg/N})·|V| + |V|/N.
func ExpectedODMembers(g GraphParams, n int) float64 {
	if n < 1 {
		n = 1
	}
	m := (1-math.Exp(-g.AvgDeg/float64(n)))*float64(g.V) + float64(g.V)/float64(n)
	// Equation 5 is an upper bound (source/target overlap is ignored); the
	// true member count can never exceed |V|, so clamp for small N.
	if m > float64(g.V) {
		return float64(g.V)
	}
	return m
}

// AAMemoryPerServer is Equation 2's vertex-state term: the All-in-All
// policy stores all |V| replicas on every server.
func AAMemoryPerServer(g GraphParams) float64 {
	return AABytesPerVertex * float64(g.V)
}

// ODMemoryPerServer is Equation 3's vertex-state term under Equation 5.
func ODMemoryPerServer(g GraphParams, n int) float64 {
	return ODBytesPerVertex * ExpectedODMembers(g, n)
}

// CrossoverServers returns the smallest cluster size at which On-Demand
// becomes cheaper than All-in-All — the boundary visible in Figure 6(a)
// (≈16–48 servers for the paper's graphs).
func CrossoverServers(g GraphParams, maxN int) int {
	for n := 1; n <= maxN; n++ {
		if ODMemoryPerServer(g, n) < AAMemoryPerServer(g) {
			return n
		}
	}
	return maxN + 1
}

// SystemCost is one row of Table III evaluated in bytes for PageRank.
type SystemCost struct {
	System string
	// RAMVertex, RAMEdge and RAMMsg are per-server memory terms.
	RAMVertex float64
	RAMEdge   float64
	RAMMsg    float64
	// Network is per-superstep cluster-wide traffic; DiskRead/DiskWrite are
	// per-superstep cluster-wide disk volumes.
	Network   float64
	DiskRead  float64
	DiskWrite float64
	// Modelled marks systems this repo does not implement (Giraph, GraphX):
	// their numbers come from this model only.
	Modelled bool
}

// TableIIIInputs bundles the model parameters.
type TableIIIInputs struct {
	Graph GraphParams
	// N servers, P tiles/partitions, W total workers.
	N, P, W int
	// Eta is the combining ratio; 0 computes it from the graph and W.
	Eta float64
	// M is the replication factor; 0 assumes 2 + log of skew ≈ paper range.
	M float64
	// Beta is GraphH's cache miss ratio in [0,1].
	Beta float64
}

// TableIII evaluates the Table III cost formulas for PageRank. Message and
// vertex sizes follow §IV-A (8-byte values/messages, 4-byte ids/degrees).
func TableIII(in TableIIIInputs) []SystemCost {
	g := in.Graph
	v := float64(g.V)
	e := float64(g.E)
	n := float64(in.N)
	p := float64(in.P)
	eta := in.Eta
	if eta == 0 {
		eta = Eta(g.AvgDeg, in.W)
	}
	m := in.M
	if m == 0 {
		m = math.Min(n, 1+math.Log2(n)) // conservative vertex-cut estimate
	}
	const (
		vertexState = 20 // id-free dense state: value + msg + outdeg
		edgeRec     = 8  // 4-byte source + 4-byte target
		msgRec      = 12 // 4-byte target + 8-byte value
	)
	return []SystemCost{
		{
			System:    "Pregel+",
			RAMVertex: v / n * vertexState,
			RAMEdge:   e / n * edgeRec,
			RAMMsg:    (eta*e + v) / n * msgRec,
			Network:   eta * e * msgRec,
		},
		{
			System:    "PowerGraph",
			RAMVertex: m * v / n * vertexState,
			RAMEdge:   2 * e / n * edgeRec,
			RAMMsg:    m * v / n * msgRec,
			Network:   2 * m * v * msgRec,
		},
		{
			System:    "GraphD",
			RAMVertex: v / n * vertexState,
			Network:   eta * e * msgRec,
			DiskRead:  2 * e * msgRec,
			DiskWrite: e * msgRec,
		},
		{
			System:    "Chaos",
			RAMVertex: n * v / p * vertexState,
			Network:   (3*e + 3*v) * msgRec,
			DiskRead:  2*e*msgRec + 2*v*8,
			DiskWrite: e*msgRec + v*8,
		},
		{
			System:    "GraphH",
			RAMVertex: v * vertexState, // All-in-All: every replica
			RAMEdge:   n * e / p * edgeRec,
			RAMMsg:    v * 8,
			Network:   n * v * 8,
			DiskRead:  in.Beta * e * edgeRec,
		},
	}
}

// Edge-cache eviction planning (Figure 7b). A BSP superstep sweeps every
// tile exactly once, so each tile's reuse distance equals the whole working
// set — the pathological case for recency-based eviction: LRU always evicts
// the tile that will be needed soonest and thrashes to a ~0% hit ratio the
// moment the working set exceeds capacity. A policy that pins a stable
// resident set (the paper's admit-no-evict, or a superstep-aware CLOCK)
// instead retains the cached fraction. GraphD makes the matching
// observation that disk traffic, not compute, governs small-cluster
// systems, which is why the policy choice moves end-to-end time.

// CyclicHitRatio is the steady-state hit ratio of a stable resident set
// under a cyclic sweep: the cached fraction capacity/workingSet, clamped to
// [0, 1]. It models both AdmitNoEvict and CLOCK (whose resident set is
// stable whenever the working set is).
func CyclicHitRatio(workingSetBytes, capacityBytes int64) float64 {
	if workingSetBytes <= 0 || capacityBytes >= workingSetBytes {
		return 1
	}
	if capacityBytes <= 0 {
		return 0
	}
	return float64(capacityBytes) / float64(workingSetBytes)
}

// SelectClockPolicy reports whether the engine should prefer the CLOCK
// eviction policy over the paper's admit-no-evict: exactly when the
// capacity cannot hold the expected cached working set. Below that point
// eviction decisions matter (admit-no-evict freezes whatever loaded first
// and cannot follow a shifting working set); at or above it nothing is ever
// evicted, every policy behaves identically, and admit-no-evict's
// settled-decline fast path is the cheapest. A non-positive capacity means
// the cache is disabled and the policy is irrelevant.
func SelectClockPolicy(workingSetBytes, capacityBytes int64) bool {
	return capacityBytes > 0 && capacityBytes < workingSetBytes
}

// Out-of-core residency planning. When the cache budget is far below the
// working set, nearly every access misses and the cache machinery is pure
// overhead: admission checks, settling, and (worse) churn that evicts the
// few residents the sweep would have hit. GraphD runs that regime by
// design — edges stream through a small scratch buffer every superstep and
// nothing is retained — and its disk-bound throughput is the best achievable
// there. SelectResidency picks between the two regimes; the prefetch-depth
// helpers size the sweep-ahead pipeline that hides the miss latency in
// either one.

// Residency is the engine's tile-residency tier.
type Residency int

const (
	// ResidencyCached keeps the edge cache in the loop: resident tiles hit,
	// misses load (and prefetch) from disk with policy-controlled admission.
	ResidencyCached Residency = iota
	// ResidencyStreaming bypasses the cache for tile data: every tile
	// streams through pooled scratch each sweep, GraphD-style. Chosen when
	// the budget is so far below the working set that hits are negligible.
	ResidencyStreaming
)

// String returns the tier name used in stats output and CLI flags.
func (r Residency) String() string {
	switch r {
	case ResidencyCached:
		return "cached"
	case ResidencyStreaming:
		return "streaming"
	default:
		return "residency(?)"
	}
}

// StreamingCrossover is the working-set-to-capacity ratio past which
// SelectResidency flips to streaming: a budget at or below 1/8 of the
// working set yields at most a 12.5% cyclic hit ratio — the disk still
// carries ≥87.5% of the bytes every sweep, so dropping the cache costs
// little and removes its churn and admission overhead from the hot loop.
const StreamingCrossover = 8

// SelectResidency picks the residency tier from the expected cached working
// set and the cache capacity (in bytes). A non-positive capacity means no
// cache at all — always streaming.
func SelectResidency(workingSetBytes, capacityBytes int64) Residency {
	if capacityBytes <= 0 {
		return ResidencyStreaming
	}
	// Division, not capacity*StreamingCrossover: an effectively unlimited
	// capacity (MaxInt64) must not overflow into a negative product.
	if workingSetBytes > 0 && capacityBytes <= workingSetBytes/StreamingCrossover {
		return ResidencyStreaming
	}
	return ResidencyCached
}

// Prefetch-depth bounds: even one worker profits from a couple of tiles in
// flight (read N+1 while computing N), and past 16 the sweep-ahead window
// only adds staged-tile memory without more overlap to win.
const (
	MinPrefetchDepth = 2
	MaxPrefetchDepth = 16
)

// PrefetchDepth sizes the sweep-ahead window — how many tiles past the
// current sweep position the prefetcher may stage — from the expected miss
// ratio of the cyclic sweep and the worker count. A full-residency cache
// (capacity at or above the working set) needs no prefetch at all: 0. Below
// that, the window scales with the miss ratio (an all-miss streaming sweep
// wants the full window; a 30%-miss sweep needs less) and never drops below
// two tiles per worker, so every worker can overlap its next read.
func PrefetchDepth(workingSetBytes, capacityBytes int64, workers int) int {
	if workingSetBytes <= 0 || capacityBytes >= workingSetBytes {
		return 0
	}
	miss := 1 - CyclicHitRatio(workingSetBytes, capacityBytes)
	depth := int(math.Round(miss * MaxPrefetchDepth))
	if workers < 1 {
		workers = 1
	}
	if w := 2 * workers; depth < w {
		depth = w
	}
	if depth < MinPrefetchDepth {
		depth = MinPrefetchDepth
	}
	if depth > MaxPrefetchDepth {
		depth = MaxPrefetchDepth
	}
	return depth
}

// PrefetchIODepth converts a sweep-ahead window into the number of batched
// reads allowed in flight at once: enough to cover the window in batches of
// batchSize, clamped to [1, 4] — one op keeps the device busy, a few hide
// per-op queueing, and more just deepens the device queue the bandwidth
// model must drain anyway.
func PrefetchIODepth(depth, batchSize int) int {
	if depth < 1 {
		return 1
	}
	if batchSize < 1 {
		batchSize = 1
	}
	io := (depth + batchSize - 1) / batchSize
	if io < 1 {
		io = 1
	}
	if io > 4 {
		io = 4
	}
	return io
}

// Adaptive send-queue sizing. The pipelined Sender's per-destination queue
// depth trades memory against backpressure: too shallow and compute workers
// stall on enqueue whenever wire time lags, too deep and idle buffers sit
// pooled for nothing. SendStalls and QueueHighWater expose exactly that
// signal, so the engine can size queues from observed wire/compute ratios
// instead of a static guess.

// Send-queue capacity bounds for AdaptQueueCap.
const (
	MinQueueCap = 8
	MaxQueueCap = 1024
)

// AdaptQueueCap returns the next per-destination send-queue capacity.
// stallsDelta is how many enqueues hit a full queue since the last
// adjustment; highWater is the deepest any queue has ever been (a lifetime
// max); quietSteps counts consecutive adjustments with zero stalls. Stalls
// double the capacity (workers are blocking on wire time); a sustained
// quiet spell whose high-water mark never reached half the capacity halves
// it. Both directions are clamped to [MinQueueCap, MaxQueueCap].
func AdaptQueueCap(cur int, stallsDelta, highWater int64, quietSteps int) int {
	if cur < MinQueueCap {
		cur = MinQueueCap
	}
	if stallsDelta > 0 {
		if cur >= MaxQueueCap {
			return MaxQueueCap
		}
		return cur * 2
	}
	if quietSteps >= 4 && highWater <= int64(cur)/2 && cur > MinQueueCap {
		return cur / 2
	}
	return cur
}

// Update-frame compression model (§IV-C). The paper compresses update
// broadcasts because its testbed's network was the bottleneck (Fig. 8d);
// on a fast or unmodelled link the codec only burns CPU, since a frame is
// encoded once and decoded by every peer while the wire carries it for
// free. One broadcast of a b-byte body to the other N−1 servers leaves its
// sender's NIC in (N−1)·b/W seconds raw and (N−1)·ratio·b/W compressed, so
// compression shortens the broadcast's critical path (encode, wire, decode)
// exactly when (N−1)·(1−ratio)·b/W exceeds the encode and decode time of b
// bytes. The body size cancels, leaving a per-job decision.

// Snappy's cost on update frames, per raw body byte, on a 2-vCPU Xeon
// (go1.24): the time it adds over a raw frame in
// BenchmarkAppendEncodeDenseSnappy against BenchmarkAppendEncodeDenseRaw
// (1.64 vs 0.12 ms for 532 KB) and BenchmarkDecodeIntoDenseSnappy against
// BenchmarkDecodeIntoDenseRaw (0.44 vs 0.10 ms). MsgSnappyRatio is the
// wire/raw ratio of snappy-compressed PageRank update frames (benchmark/'s
// compress.wire_ratio: 0.78 on pr-mem and pr-ooc, 0.71 on svc-mixed).
const (
	MsgSnappyEncodeNsPerByte = 2.9
	MsgSnappyDecodeNsPerByte = 0.6
	MsgSnappyRatio           = 0.77
)

// SelectMsgCodec picks the codec of a job's update frames on n servers
// whose NICs each carry netBandwidth bytes/s: snappy when the wire time the
// broadcast saves exceeds snappy's encode + decode time, raw otherwise. A
// non-positive bandwidth means no link cost is modelled (inproc or
// loopback), and a single server broadcasts nothing; both are raw.
func SelectMsgCodec(n int, netBandwidth int64) compress.Mode {
	if n < 2 || netBandwidth <= 0 {
		return compress.None
	}
	savedNsPerByte := float64(n-1) * (1 - MsgSnappyRatio) * 1e9 / float64(netBandwidth)
	if savedNsPerByte > MsgSnappyEncodeNsPerByte+MsgSnappyDecodeNsPerByte {
		return compress.Snappy
	}
	return compress.None
}

// Checkpoint-interval cost model. Checkpointing every superstep minimizes
// lost work after a crash but maximizes overhead; never checkpointing does
// the reverse. Young's classic first-order approximation balances the two:
// the optimal interval between checkpoints is τ = sqrt(2·C·MTBF), where C
// is the cost of taking one checkpoint and MTBF the mean time between
// failures. The engine takes the interval in supersteps (it must be
// identical on every server for the cut to be consistent), so the advisory
// helper below converts τ to a step count using the measured per-superstep
// cost.

// YoungInterval returns Young's optimal wall-clock interval between
// checkpoints, sqrt(2·C·MTBF), for a checkpoint cost C and mean time
// between failures MTBF. Non-positive inputs yield 0 (checkpointing
// disabled — with no failures expected, any checkpoint is pure overhead).
func YoungInterval(checkpointCost, mtbf time.Duration) time.Duration {
	if checkpointCost <= 0 || mtbf <= 0 {
		return 0
	}
	return time.Duration(math.Sqrt(2 * float64(checkpointCost) * float64(mtbf)))
}

// CheckpointEverySteps converts Young's interval to a superstep count for a
// job whose supersteps cost stepCost each: round(τ/stepCost), at least 1.
// Returns 0 when checkpointing should be disabled (no failure model or
// nothing measurable to amortize).
func CheckpointEverySteps(stepCost, checkpointCost, mtbf time.Duration) int {
	tau := YoungInterval(checkpointCost, mtbf)
	if tau == 0 || stepCost <= 0 {
		return 0
	}
	k := int(math.Round(float64(tau) / float64(stepCost)))
	if k < 1 {
		k = 1
	}
	return k
}

// MeasuredMultiplier reproduces Figure 1(a)'s framework-overhead systems
// that this repo does not rebuild: the paper measured Giraph at 8.5× and
// GraphX at 7.3× the input CSV size when running PageRank on UK-2007.
func MeasuredMultiplier(system string) (float64, bool) {
	switch system {
	case "Giraph":
		return 8.5, true
	case "GraphX":
		return 7.3, true
	default:
		return 0, false
	}
}
