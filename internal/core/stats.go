package core

import (
	"time"

	"repro/internal/cache"
	"repro/internal/compress"
	"repro/internal/disk"
)

// StepStats records one superstep's behaviour, summed over all servers.
// These are the series behind Figure 8.
// The json tags pin the wire schema served by the graphhd daemon (and
// printed by `graphh -json`): stable lower_snake names, durations as
// integer nanoseconds. Renaming a Go field must not change the wire name.
type StepStats struct {
	// Superstep index, 0-based.
	Superstep int `json:"superstep"`
	// Updated is the number of vertices whose value changed this step.
	Updated int `json:"updated"`
	// WireBytes is the network traffic of the step (message bytes actually
	// sent between distinct servers, end-of-step frames included);
	// RawBytes the pre-compression size.
	WireBytes int64 `json:"wire_bytes"`
	RawBytes  int64 `json:"raw_bytes"`
	// DenseMsgs and SparseMsgs count the frames that went on the wire. On a
	// multi-server cluster dense tile batches stream in frames of their
	// own, counted in DenseMsgs, and every sparse batch rides its server's
	// one end-of-step frame, counted in SparseMsgs (one per server per
	// step). A single server sends nothing and counts each tile's batch by
	// the encoding it would have had.
	DenseMsgs  int `json:"dense_msgs"`
	SparseMsgs int `json:"sparse_msgs"`
	// SkippedTiles counts tiles pruned without being loaded because none of
	// their sources changed in the previous step (the source-range test on
	// the active set, refined by the tile's Bloom filter).
	SkippedTiles int `json:"skipped_tiles"`
	// LoadedTiles counts tiles actually processed.
	LoadedTiles int `json:"loaded_tiles"`
	// GatheredEdges counts the in-edges folded through Gather: every edge
	// of every loaded tile on a dense step, only the in-edges of targets
	// with an updated in-neighbour on a sparse one.
	GatheredEdges int64 `json:"gathered_edges"`
	// MigratedTiles is always zero.
	//
	// Deprecated: tiles never move between servers mid-run; the field is
	// inert and kept only so existing readers compile.
	MigratedTiles int `json:"migrated_tiles"`
	// Duration is the wall-clock time of the step (max over servers).
	Duration time.Duration `json:"duration_ns"`
	// Rebalance is always zero.
	//
	// Deprecated: there is no rebalance phase; the field is inert and kept
	// only so existing readers compile.
	Rebalance time.Duration `json:"rebalance_ns"`
	// Checkpoint is the wall-clock time of the checkpoint phase at this
	// step's boundary (max over servers; zero on non-checkpoint steps).
	Checkpoint time.Duration `json:"checkpoint_ns"`
}

// ServerStats records one server's behaviour. The I/O and traffic
// counters (Disk, Cache, BytesSent/Recv, SendStalls) are cumulative since
// the session opened — for a classic Run that is the whole run; on a warm
// session's later Submits the job's own share is the delta against the
// previous Result, which is exactly what pins cross-job reuse (a warm job
// adds cache hits but no tile writes). Gauges (MemoryBytes, VertexSlots,
// SendQueueCap) are per-job.
// The json tags pin the daemon's wire schema: stable lower_snake names,
// durations as integer nanoseconds, enum fields (cache mode/policy,
// residency) as their String names.
type ServerStats struct {
	// Server rank.
	Server int `json:"server"`
	// MemoryBytes is the analytic peak memory footprint: vertex replicas +
	// message array + degree arrays + cache contents + in-flight tiles +
	// Bloom filters (§IV-A accounting).
	MemoryBytes int64 `json:"memory_bytes"`
	// VertexSlots is the number of vertex replicas held (|V| for AllInAll).
	VertexSlots int `json:"vertex_slots"`
	// Disk is the local tile store traffic.
	Disk disk.Counters `json:"disk"`
	// Cache is the edge-cache statistics (Figure 7).
	Cache cache.Stats `json:"cache"`
	// CacheMode is the codec the cache ran with (auto-selected or fixed).
	CacheMode compress.Mode `json:"cache_mode"`
	// CachePolicy is the eviction policy the cache ran with (auto-selected
	// or fixed).
	CachePolicy cache.Policy `json:"cache_policy"`
	// Residency is the tile-residency tier the server ran with
	// (auto-selected or forced): cached, or GraphD-style streaming.
	Residency ResidencyMode `json:"residency"`
	// PrefetchIssued counts tiles the sweep-ahead prefetcher handed to
	// background batched reads; PrefetchHits the staged tiles the demand
	// path claimed; PrefetchWasted the staged tiles never claimed plus
	// failed prefetch reads (the demand path retried those synchronously).
	// Disk queue-depth pressure from the same pipeline shows up in
	// Disk.QueuedOps/QueueHighWater.
	PrefetchIssued int64 `json:"prefetch_issued"`
	PrefetchHits   int64 `json:"prefetch_hits"`
	PrefetchWasted int64 `json:"prefetch_wasted"`
	// BytesSent and BytesRecv are the server's network totals.
	BytesSent int64 `json:"bytes_sent"`
	BytesRecv int64 `json:"bytes_recv"`
	// SendStalls counts broadcast enqueues that found a full send queue
	// (a compute worker backpressured by wire time); SendQueueHighWater is
	// the deepest any destination queue got. Both are zero on single-server
	// runs.
	SendStalls         int64 `json:"send_stalls"`
	SendQueueHighWater int64 `json:"send_queue_high_water"`
	// SendQueueCap is the per-destination send-queue capacity at the end of
	// the job — a serial session's adaptive sizing may have moved it from
	// the initial 32. Zero on single-server runs.
	SendQueueCap int `json:"send_queue_cap"`
	// Checkpoints counts the checkpoints this server wrote during the job;
	// CheckpointBytes is their encoded volume.
	Checkpoints     int   `json:"checkpoints"`
	CheckpointBytes int64 `json:"checkpoint_bytes"`
	// TilesAdopted counts dead peers' tiles this server took over during
	// recovery; Recoveries counts recovery rounds it completed; RecoveryTime
	// is the wall-clock total those rounds took (restore + replay excluded).
	TilesAdopted int           `json:"tiles_adopted"`
	Recoveries   int           `json:"recoveries"`
	RecoveryTime time.Duration `json:"recovery_time_ns"`
	// Joins counts the times this server has rejoined the session so far
	// (elastic membership, between jobs; cumulative like the I/O
	// counters); MembershipEpoch is the cluster membership epoch at the
	// end of the job — it advances by one for every death *and* every join
	// the session has seen, so operators can tell a churned cluster from a
	// stable one even when deaths and joins cancel out.
	Joins           int    `json:"joins"`
	MembershipEpoch uint64 `json:"membership_epoch"`
	// SharedTileLoads counts tiles this job took from the multi-tenant
	// share window instead of reading from disk — each one is a disk read a
	// concurrent job paid on this job's behalf. Always 0 in serial sessions.
	SharedTileLoads int64 `json:"shared_tile_loads"`
}

// Result is the outcome of one engine run.
type Result struct {
	// Values holds the final value of every vertex.
	Values []float64
	// Supersteps actually executed (including the final all-quiet one).
	Supersteps int
	// Converged reports whether the run stopped because no vertex updated
	// (as opposed to hitting MaxSupersteps).
	Converged bool
	// Steps has one entry per superstep.
	Steps []StepStats
	// Servers has one entry per server.
	Servers []ServerStats
	// Duration is the total wall-clock time of the superstep loop,
	// excluding setup (tile fetch) — the paper reports averages without
	// the first, loading, superstep.
	Duration time.Duration
	// SetupDuration covers tile fetch + state initialization.
	SetupDuration time.Duration
	// DeadServers lists the ranks that died during (or before) this job —
	// scripted kills or fenced false accusations. Empty on a healthy run.
	// A dead server's ServerStats entry is zero-valued.
	DeadServers []int
}

// TotalWireBytes sums network traffic over all supersteps.
func (r *Result) TotalWireBytes() int64 {
	var n int64
	for _, s := range r.Steps {
		n += s.WireBytes
	}
	return n
}

// AvgStepDuration returns the mean superstep duration, excluding the first
// superstep when there is more than one — the paper's reporting convention
// (§V: "calculate the average execution time without the first superstep").
func (r *Result) AvgStepDuration() time.Duration {
	if len(r.Steps) == 0 {
		return 0
	}
	steps := r.Steps
	if len(steps) > 1 {
		steps = steps[1:]
	}
	var total time.Duration
	for _, s := range steps {
		total += s.Duration
	}
	return total / time.Duration(len(steps))
}

// PeakMemoryBytes returns the largest per-server footprint, the quantity
// Figure 6(b) plots.
func (r *Result) PeakMemoryBytes() int64 {
	var peak int64
	for _, s := range r.Servers {
		if s.MemoryBytes > peak {
			peak = s.MemoryBytes
		}
	}
	return peak
}

// TotalMemoryBytes sums the per-server footprints, the quantity Figure 1(a)
// plots.
func (r *Result) TotalMemoryBytes() int64 {
	var total int64
	for _, s := range r.Servers {
		total += s.MemoryBytes
	}
	return total
}
