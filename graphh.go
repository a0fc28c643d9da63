// Package graphh is the public API of this reproduction of "GraphH: High
// Performance Big Graph Analytics in Small Clusters" (Sun, Wen, Ta, Xiao —
// IEEE CLUSTER 2017).
//
// GraphH is a distributed memory–disk hybrid graph processing system. It
// partitions a graph into equal-edge-count CSR tiles (two-stage
// partitioning), runs vertex programs under the GAB (Gather–Apply–Broadcast)
// model where every vertex is replicated on every simulated server and each
// worker processes one tile in memory at a time, keeps a compressed edge
// cache in idle memory to avoid disk re-reads, and broadcasts value updates
// with a hybrid dense/sparse wire encoding.
//
// The minimal workflow:
//
//	g, _ := graphh.Generate("uk2007-sim", 0.1)        // or LoadCSV / LoadBinary
//	p, _ := graphh.Partition(g, graphh.PartitionOptions{})
//	res, _ := graphh.Run(p, graphh.NewPageRank(), graphh.Options{Servers: 4})
//	fmt.Println(res.Values[:10])
//
// Programs implement the two-function GAB abstraction (§III-C): Gather folds
// in-edges into an accumulator, Apply produces the new vertex value, and the
// engine broadcasts changes. PageRank, SSSP, BFS and WCC ship ready-made.
//
// # Sessions
//
// Run pays GraphH's full setup — cluster boot, tile persistence to every
// server's local store, cache warm-up — on every call. A Session pays it
// once and amortizes it across any number of jobs:
//
//	s, _ := graphh.Open(p, graphh.Options{Servers: 4})
//	defer s.Close()
//	ranks, _ := s.Submit(ctx, graphh.NewPageRank(), graphh.RunOptions{})
//	dists, _ := s.Submit(ctx, graphh.NewSSSP(0), graphh.RunOptions{})
//
// Between Submits the partitioned tiles stay persisted, the edge cache
// stays warm (a second job's first superstep is served from memory), and
// tile placement stays fixed. Each Submit resets only per-job
// state: vertex values, halt votes, statistics, send queues. Cancelling a
// Submit's context aborts the job at the next superstep edge and leaves
// the session healthy; RunOptions carries the per-job knobs, including a
// Progress callback streamed at every superstep barrier.
//
// # Transport pipeline
//
// Update broadcasts flow through an asynchronous per-destination pipeline
// (§IV-C's compute/communication overlap): each worker encodes its tile's
// batch into a pooled wire buffer and enqueues it, a goroutine per peer
// drains the bounded queue onto the wire, and a concurrent receive loop
// decodes foreign batches into per-sender staging while local tiles are
// still being processed. Staged updates are applied only after local
// compute finishes, so results stay bit-identical to a serial run; the send
// queues are flushed before every BSP barrier so failures surface at step
// edges. A superstep therefore costs max(compute, wire) rather than their
// sum. Each destination's queue starts at 32 batches; a serial session
// resizes it from the send stalls it observes.
package graphh

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/apps"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/graph"
	"repro/internal/tile"
)

// Graph is a directed input graph in edge-list form.
type Graph = graph.EdgeList

// Edge is one directed edge of a Graph.
type Edge = graph.Edge

// Partitioned is a graph after two-stage tile partitioning.
type Partitioned = tile.Partition

// Program is a GAB vertex program; see NewPageRank for a reference
// implementation and core.Program for the contract. Gather is called once
// per target vertex with all of its in-edges in the current tile and folds
// them itself; Apply turns the result into the vertex's new value.
type Program = core.Program

// Replicas is a server's vertex replicas as a Program's Gather sees them:
// Get(u) returns the current value of source vertex u.
type Replicas = core.Replicas

// GraphInfo is the read-only context handed to programs.
type GraphInfo = core.Graph

// Result is the outcome of a Run or a Session.Submit.
type Result = core.Result

// StepStats is one superstep's statistics — the element of Result.Steps and
// the payload of RunOptions.Progress.
type StepStats = core.StepStats

// ServerStats is one server's statistics — the element of Result.Servers.
// Its I/O and traffic counters are cumulative since the session opened
// (identical to whole-run totals for a plain Run); see core.ServerStats.
type ServerStats = core.ServerStats

// Transport kinds for the simulated cluster.
const (
	// TransportInproc connects simulated servers with channels (default).
	TransportInproc = cluster.Inproc
	// TransportTCP connects them with real loopback TCP sockets.
	TransportTCP = cluster.TCP
)

// Codec names the compression codecs accepted by Options.
type Codec = compress.Mode

// Available codecs, in the paper's cache-mode order.
const (
	CodecNone   = compress.None
	CodecSnappy = compress.Snappy
	CodecZlib1  = compress.Zlib1
	CodecZlib3  = compress.Zlib3
)

// CachePolicy names the edge-cache eviction policies accepted by Options.
type CachePolicy = cache.Policy

// Available cache eviction policies.
const (
	// CacheAdmitNoEvict is the paper's §IV-B policy: admit while room
	// remains, never evict. Optimal for a stable cyclic working set,
	// frozen forever once full.
	CacheAdmitNoEvict = cache.AdmitNoEvict
	// CacheClock is the superstep-aware CLOCK/k-chance policy: tiles
	// touched in the current superstep are protected, tiles untouched for
	// two consecutive supersteps become eviction victims, so the resident
	// set is stable under cyclic access yet follows working-set shifts.
	CacheClock = cache.Clock
)

// CachePolicyByName parses a policy name ("admit-no-evict", "clock") as
// printed by CachePolicy.String.
func CachePolicyByName(name string) (CachePolicy, error) { return cache.PolicyByName(name) }

// CodecByName parses a codec name ("raw", "snappy", "zlib-1", "zlib-3") as
// printed by Codec.String.
func CodecByName(name string) (Codec, error) { return compress.ModeByName(name) }

// ResidencyMode selects the tile-residency tier of the out-of-core
// pipeline; see Options.Residency.
type ResidencyMode = core.ResidencyMode

// Available residency tiers.
const (
	// ResidencyAuto picks per session: cached while the budget earns a
	// useful hit ratio, streaming when it sits at or below 1/8 of the tile
	// working set (or the cache is disabled).
	ResidencyAuto = core.ResidencyAuto
	// ResidencyCached forces the edge-cache tier.
	ResidencyCached = core.ResidencyCached
	// ResidencyStreaming forces the GraphD-style streaming tier: every
	// tile streams through pooled scratch each sweep, bypassing the cache.
	ResidencyStreaming = core.ResidencyStreaming
)

// ResidencyByName parses a residency name ("auto", "cached", "streaming")
// as printed by ResidencyMode.String.
func ResidencyByName(name string) (ResidencyMode, error) { return core.ResidencyByName(name) }

// Fault injection and recovery re-exports. A FaultPlan scripts
// deterministic failures — server crashes and hangs, scripted rejoins,
// disk-op errors, dropped or duplicated wire frames — into a Run or a
// Session via Options.Faults; with Options.CheckpointEvery set, the
// surviving servers recover from the newest common checkpoint and finish
// the job with bit-identical results. See core.FaultPlan and
// docs/ARCHITECTURE.md, "Checkpointing & recovery" and "Elastic
// membership".
type (
	// FaultPlan scripts failures into one Run or Session.
	FaultPlan = core.FaultPlan
	// Kill crashes (or hangs) one server at one superstep.
	Kill = core.Kill
	// Rejoin scripts a dead server's elastic-membership comeback: at the
	// start of the given superstep the join controller requests the join,
	// exactly as Session.Join. The job in flight finishes without the
	// server, and it serves from the next Submit. See docs/ARCHITECTURE.md,
	// "Elastic membership".
	Rejoin = core.Rejoin
	// DiskFault fails one server's n-th disk operation of a given kind.
	DiskFault = core.DiskFault
	// WireFault drops or duplicates one cross-server frame.
	WireFault = core.WireFault
	// KillPoint locates a scripted crash within its superstep.
	KillPoint = core.KillPoint
)

// Kill points within a superstep.
const (
	KillAtStepStart = core.KillAtStepStart
	KillMidStep     = core.KillMidStep
	KillAtBarrier   = core.KillAtBarrier
)

// Wire-fault actions.
const (
	WireDeliver   = cluster.WireDeliver
	WireDrop      = cluster.WireDrop
	WireDuplicate = cluster.WireDuplicate
)

// Sentinel errors of the fault/recovery machinery, for errors.Is.
var (
	// ErrInjectedFault marks every failure a FaultPlan manufactures.
	ErrInjectedFault = core.ErrInjectedFault
	// ErrSessionDead marks Submits that fail fast because an earlier
	// job's hard error killed the session; the wrapped chain still
	// carries the original cause.
	ErrSessionDead = core.ErrSessionDead
	// ErrSessionClosed marks Submits and Joins that arrive after Close.
	// Unlike ErrSessionDead nothing failed — the caller shut the session
	// down; embedders serving sessions over a wire protocol can map the
	// three admission failures distinctly ("shutting down" vs "crashed"
	// vs "overloaded") with errors.Is.
	ErrSessionClosed = core.ErrSessionClosed
	// ErrJobQueueFull marks Submits a multi-tenant session sheds because
	// MaxConcurrentJobs jobs are running and the admission queue is at
	// capacity. Nothing was enqueued; retry later or raise MaxQueuedJobs.
	ErrJobQueueFull = core.ErrJobQueueFull
)

// LoadCSV reads a tab/space-separated edge list ("src dst [weight]"; # and %
// comments allowed).
func LoadCSV(r io.Reader, name string) (*Graph, error) { return graph.ReadCSV(r, name) }

// LoadCSVFile reads an edge-list file.
func LoadCSVFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadCSV(f, path)
}

// LoadBinary reads the compact binary edge-list format written by
// (*Graph).WriteBinary.
func LoadBinary(r io.Reader, name string) (*Graph, error) { return graph.ReadBinary(r, name) }

// Generate materializes one of the paper's benchmark graph analogues
// ("twitter-sim", "uk2007-sim", "uk2014-sim", "eu2015-sim") at the given
// scale; scale 1.0 is the laptop-sized default documented in EXPERIMENTS.md.
func Generate(dataset string, scale float64) (*Graph, error) {
	d, err := graph.DatasetByName(dataset)
	if err != nil {
		return nil, err
	}
	if scale <= 0 {
		scale = 1
	}
	return d.Generate(scale), nil
}

// GenerateRMAT generates a synthetic power-law graph directly.
func GenerateRMAT(numVertices uint32, numEdges int, seed uint64) *Graph {
	return graph.GenerateRMAT(graph.DefaultRMAT(), numVertices, numEdges, seed)
}

// PartitionOptions configures stage-one partitioning (§III-B).
type PartitionOptions struct {
	// TileSize is S, the target edges per tile; 0 picks a size that gives
	// each worker several tiles.
	TileSize int
	// BloomFPRate tunes the per-tile filters; 0 = 1%, negative disables.
	BloomFPRate float64
}

// Partition splits g into equal-edge-count CSR tiles.
func Partition(g *Graph, opts PartitionOptions) (*Partitioned, error) {
	return tile.Split(g, tile.Options{TileSize: opts.TileSize, BloomFPRate: opts.BloomFPRate})
}

// Options configures a Run or an Open. The zero value runs single-server
// with the paper's defaults (hybrid communication, automatic cache mode,
// All-in-All replication, Bloom tile skipping) and compresses update
// messages only where the modelled link makes it pay. MaxSupersteps and
// MessageCodec are per-job settings that historically lived here; on a
// session they act as defaults that RunOptions can override per Submit.
type Options struct {
	// Servers is N, the simulated cluster size (default 1).
	Servers int
	// Workers is T, the per-server worker count (default GOMAXPROCS/N).
	Workers int
	// MaxSupersteps bounds each job (default 100). Per-job override:
	// RunOptions.MaxSupersteps.
	MaxSupersteps int
	// Transport selects TransportInproc (default) or TransportTCP.
	Transport cluster.TransportKind
	// DiskReadBandwidth/DiskWriteBandwidth model the per-server tile store
	// in bytes/second; 0 = unthrottled.
	DiskReadBandwidth  int64
	DiskWriteBandwidth int64
	// DiskReadLatency models the per-operation cost of a read (seek +
	// request overhead) on top of the bandwidth charge; 0 keeps the pure
	// bandwidth model. It is what makes batched prefetch reads cheaper
	// than tile-at-a-time reads.
	DiskReadLatency time.Duration
	// NetBandwidth models each server's NIC in bytes/second; 0 = unlimited.
	NetBandwidth int64
	// CacheCapacity is the per-server edge cache budget in bytes:
	// 0 = unlimited, negative = disabled.
	CacheCapacity int64
	// CacheMode fixes the cache codec; nil selects automatically (§IV-B).
	CacheMode *Codec
	// CachePolicy fixes the edge-cache eviction policy; nil selects
	// automatically — CacheClock when the capacity cannot hold the tile
	// working set (eviction decisions matter), CacheAdmitNoEvict otherwise.
	CachePolicy *CachePolicy
	// PrefetchDepth sizes the sweep-ahead tile prefetch window: 0 (the
	// default) sizes it automatically from the expected miss ratio — a
	// full-residency cache prefetches nothing — and a negative value
	// disables prefetching. Results are bit-identical either way; the
	// window only changes where tile bytes come from.
	PrefetchDepth int
	// Residency selects the tile-residency tier: ResidencyAuto (default)
	// keeps the edge cache in the loop while the budget earns hits and
	// switches to GraphD-style streaming when it is far below the tile
	// working set; ResidencyCached / ResidencyStreaming force a tier.
	Residency ResidencyMode
	// MessageCodec compresses update broadcasts (§IV-C); nil picks per
	// job from Servers and NetBandwidth: snappy when the wire time it saves
	// beats its encode and decode time, raw otherwise (always raw when
	// NetBandwidth is 0). Per-job override: RunOptions.MessageCodec.
	MessageCodec *Codec
	// ForceDense / ForceSparse disable the hybrid wire encoding (ablation).
	ForceDense, ForceSparse bool
	// OnDemandReplication switches from All-in-All to On-Demand (§IV-A).
	OnDemandReplication bool
	// DisableBloomSkip turns off inactive-tile skipping (§III-C-4).
	DisableBloomSkip bool
	// DisableRebalance is ignored.
	//
	// Deprecated: tile placement is the static two-stage partition for the
	// whole run (§III-B); there is no rebalancer to disable. The field is
	// inert and kept only so existing callers compile.
	DisableRebalance bool
	// CheckpointEvery, when positive, writes a consistent checkpoint of
	// the vertex state every that-many supersteps, enabling crash
	// recovery: survivors of a server loss restore from the newest common
	// checkpoint and replay to bit-identical results. Requires All-in-All
	// replication. Per-job override: RunOptions.CheckpointEvery.
	CheckpointEvery int
	// MaxConcurrentJobs, when > 1, makes the session multi-tenant: up to
	// that many Submits run interleaved over the shared tile stores and
	// caches, each tagged with a per-job ID so their wire traffic,
	// barriers and checkpoints never alias. Two jobs sweeping the same
	// graph share tile disk reads (single-flight cache loads plus the
	// cross-job share window); fairness at superstep edges is weighted
	// round-robin over RunOptions.Weight. Values ≤ 1 keep the classic
	// serial session. Multi-tenant sessions run without the sweep-ahead
	// prefetcher.
	MaxConcurrentJobs int
	// MaxQueuedJobs bounds how many Submits may wait for admission when
	// MaxConcurrentJobs jobs are already running; further Submits fail
	// fast with ErrJobQueueFull. 0 picks a bound from the run level.
	MaxQueuedJobs int
	// FailureTimeout arms the failure detector: a server whose barrier
	// vote or update traffic stalls this long is declared dead by the
	// survivors. 0 leaves only self-declared crashes detectable.
	FailureTimeout time.Duration
	// Faults scripts deterministic failures into the run — server kills,
	// disk-op errors, dropped or duplicated wire frames. nil injects
	// nothing.
	Faults *FaultPlan
	// WorkDir hosts per-server scratch stores; "" = temp dir.
	WorkDir string
}

func (o Options) engineConfig() (core.Config, error) {
	if o.ForceDense && o.ForceSparse {
		return core.Config{}, fmt.Errorf("graphh: ForceDense and ForceSparse are mutually exclusive")
	}
	cfg := core.DefaultConfig(o.Servers)
	cfg.WorkersPerServer = o.Workers
	cfg.MaxSupersteps = o.MaxSupersteps
	cfg.Transport = o.Transport
	cfg.Disk = disk.Config{
		ReadBandwidth:  o.DiskReadBandwidth,
		WriteBandwidth: o.DiskWriteBandwidth,
		ReadLatency:    o.DiskReadLatency,
	}
	cfg.NetBandwidth = o.NetBandwidth
	cfg.CacheCapacity = o.CacheCapacity
	cfg.PrefetchDepth = o.PrefetchDepth
	cfg.Residency = o.Residency
	if o.CacheMode != nil {
		cfg.CacheAuto = false
		cfg.CacheMode = *o.CacheMode
	}
	if o.CachePolicy != nil {
		cfg.CachePolicyAuto = false
		cfg.CachePolicy = *o.CachePolicy
	}
	if o.MessageCodec != nil {
		mc := *o.MessageCodec
		cfg.MsgCodec = &mc
	}
	switch {
	case o.ForceDense:
		cfg.Comm = comm.ForceDense
	case o.ForceSparse:
		cfg.Comm = comm.ForceSparse
	}
	if o.OnDemandReplication {
		cfg.Replication = core.OnDemand
	}
	if o.DisableBloomSkip {
		cfg.BloomSkip = false
	}
	cfg.CheckpointEvery = o.CheckpointEvery
	cfg.MaxConcurrentJobs = o.MaxConcurrentJobs
	cfg.MaxQueuedJobs = o.MaxQueuedJobs
	cfg.FailureTimeout = o.FailureTimeout
	cfg.Faults = o.Faults
	cfg.WorkDir = o.WorkDir
	return cfg, nil
}

// RunOptions are the per-job knobs of Session.Submit. The zero value
// inherits every setting from the session's Options, so
// Submit(ctx, prog, RunOptions{}) behaves exactly like Run with those
// Options.
type RunOptions struct {
	// MaxSupersteps bounds this job; 0 inherits Options.MaxSupersteps.
	MaxSupersteps int
	// MessageCodec compresses this job's update broadcasts; nil inherits
	// Options.MessageCodec (the link-based choice by default).
	MessageCodec *Codec
	// Progress, when non-nil, streams live statistics: it is called once
	// per superstep, at the step's BSP barrier, from the coordinator
	// server. Superstep and Updated are global; the byte/tile counters are
	// the coordinator's local share. The callback blocks the superstep
	// loop, so keep it fast, and never call Submit or Close on the session
	// from inside it (that deadlocks: Submit is still waiting on the very
	// job the callback runs in). Cancelling the job's context from
	// Progress is the supported way to stop a run.
	Progress func(StepStats)
	// CheckpointEvery overrides Options.CheckpointEvery for this job:
	// 0 inherits, negative disables checkpointing for this job, positive
	// checkpoints every that-many supersteps.
	CheckpointEvery int
	// Weight is this job's weighted-round-robin share in a multi-tenant
	// session (Options.MaxConcurrentJobs > 1): at contended superstep
	// edges a weight-2 job is serviced twice as often as a weight-1 job.
	// 0 or negative means 1; serial sessions ignore it.
	Weight int
}

// Session is a persistent GraphH deployment: a booted simulated cluster
// whose servers keep their assigned tiles on local disk, their degree
// context and a warm edge cache across any number of submitted jobs. Open
// it once, Submit programs back-to-back (PageRank, then SSSP, then WCC —
// with zero re-partitioning and cache epochs carried across jobs), and
// Close it when done.
//
// A Session is safe for concurrent use. By default jobs serialize (the BSP
// superstep loop owns the whole cluster while it runs); opened with
// Options.MaxConcurrentJobs > 1 the session is multi-tenant instead — up to
// that many Submits interleave superstep-by-superstep, sharing tile disk
// reads, with weighted round-robin fairness and identical (bit-for-bit)
// per-job results either way.
type Session struct {
	s *core.Session
}

// Open boots a session over a partitioned graph: the simulated servers
// start, every tile is persisted to its server's local store, and the
// per-server caches are sized — Run's full setup, paid once. The caller
// must Close the session.
func Open(p *Partitioned, opts Options) (*Session, error) {
	if p == nil {
		return nil, fmt.Errorf("graphh: nil partition")
	}
	cfg, err := opts.engineConfig()
	if err != nil {
		return nil, err
	}
	s, err := core.Open(core.Input{Partition: p}, cfg)
	if err != nil {
		return nil, err
	}
	return &Session{s: s}, nil
}

// Submit runs one program against the session's warm cluster. Tiles are
// not re-partitioned or re-persisted; the edge cache carries over from the
// previous job, while vertex values, halt votes, statistics and send queues
// start fresh.
//
// Cancelling ctx aborts the job at the next superstep edge: Submit returns
// ctx.Err() and the session stays usable. A hard engine error kills the
// session; Submit reports it and later Submits fail fast.
func (s *Session) Submit(ctx context.Context, prog Program, ro RunOptions) (*Result, error) {
	return s.s.Submit(ctx, prog, core.JobOptions{
		MaxSupersteps:   ro.MaxSupersteps,
		MsgCodec:        ro.MessageCodec,
		Progress:        ro.Progress,
		CheckpointEvery: ro.CheckpointEvery,
		Weight:          ro.Weight,
	})
}

// Join readmits a dead server into the live session (elastic membership).
// Join returns once the server is a live member again; joining a live rank
// is a no-op.
//
// The server is admitted only between jobs: Join pauses job admission, the
// jobs in flight finish without the server (listing it in
// Result.DeadServers), and it serves from the next job on, reclaiming its
// persisted base tiles. The wait lasts as long as the longest job in flight
// and ends early only when ctx is cancelled or the session is closed;
// admission resumes either way.
func (s *Session) Join(ctx context.Context, server int) error { return s.s.Join(ctx, server) }

// Close tears the session down: job loops exit, the cluster closes, and
// session-owned scratch directories are removed. Close is idempotent.
func (s *Session) Close() error { return s.s.Close() }

// Run executes a program over a partitioned graph on a simulated cluster.
// It is a thin Open→Submit→Close: callers running several programs over
// the same partition should hold a Session instead and amortize the setup.
func Run(p *Partitioned, prog Program, opts Options) (*Result, error) {
	s, err := Open(p, opts)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Submit(context.Background(), prog, RunOptions{})
}

// RunGraph partitions g with default options and runs prog — the one-call
// convenience path.
func RunGraph(g *Graph, prog Program, opts Options) (*Result, error) {
	p, err := Partition(g, PartitionOptions{})
	if err != nil {
		return nil, err
	}
	return Run(p, prog, opts)
}

// NewPageRank returns the PageRank program of Algorithm 6 (damping 0.85).
func NewPageRank() Program { return apps.PageRank{} }

// NewPageRankDamping returns PageRank with a custom damping factor.
func NewPageRankDamping(d float64) Program { return apps.PageRank{Damping: d} }

// NewSSSP returns the single-source shortest paths program of Algorithm 7.
// Unreached vertices finish with value +Inf.
func NewSSSP(source uint32) Program { return apps.SSSP{Source: source} }

// NewBFS returns a hop-count program (SSSP over unit weights).
func NewBFS(source uint32) Program { return apps.BFS{Source: source} }

// NewWCC returns the weakly-connected-components program. The input graph
// must be symmetric; see (*Graph).Symmetrize.
func NewWCC() Program { return apps.WCC{} }
