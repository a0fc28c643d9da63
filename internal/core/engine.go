package core

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/costmodel"
	"repro/internal/csr"
	"repro/internal/disk"
	"repro/internal/spe"
	"repro/internal/tile"
)

// Config describes an engine deployment: the simulated cluster shape, the
// storage model and the paper's optimization knobs.
type Config struct {
	// NumServers is N, the cluster size. Default 1.
	NumServers int
	// WorkersPerServer is T, the per-server worker pool (the OpenMP thread
	// count in the paper). Default: GOMAXPROCS/N, at least 1.
	WorkersPerServer int
	// Transport selects the cluster substrate (default in-process).
	Transport cluster.TransportKind
	// NetBandwidth throttles each server's outbound NIC when positive.
	NetBandwidth int64
	// Disk models each server's local tile store.
	Disk disk.Config
	// WorkDir hosts the per-server local tile stores. Empty means a fresh
	// directory under os.TempDir, removed after the run.
	WorkDir string
	// CacheCapacity is the per-server edge cache budget in bytes:
	// 0 = unlimited (cache everything), negative = cache disabled.
	CacheCapacity int64
	// CacheAuto enables the paper's automatic mode selection (§IV-B);
	// otherwise CacheMode is used as-is.
	CacheAuto bool
	// CacheMode is the fixed cache codec when CacheAuto is false.
	CacheMode compress.Mode
	// CachePolicyAuto picks the eviction policy from the costmodel: CLOCK
	// when the capacity cannot hold the expected cached working set (so
	// eviction decisions matter), the paper's AdmitNoEvict otherwise.
	CachePolicyAuto bool
	// CachePolicy is the fixed eviction policy when CachePolicyAuto is
	// false.
	CachePolicy cache.Policy
	// PrefetchDepth sizes the sweep-ahead tile prefetcher: how many tiles
	// past the current sweep position may be staged by background batched
	// reads. 0 (default) sizes it automatically from the expected miss
	// ratio (costmodel.PrefetchDepth — off when the cache holds the whole
	// working set); a negative value disables prefetching entirely.
	// Prefetching only changes where tile bytes come from; results are
	// bit-identical either way.
	PrefetchDepth int
	// Residency selects the tile residency tier. ResidencyAuto (default)
	// picks via costmodel.SelectResidency: cached while the budget earns a
	// useful hit ratio, streaming (GraphD-style — tiles flow through pooled
	// scratch, no cache churn) when the budget is ≤ 1/8 of the working set
	// or the cache is disabled.
	Residency ResidencyMode
	// MsgCodec compresses update broadcasts (§IV-C). nil (the default)
	// leaves the choice to costmodel.SelectMsgCodec, made once per job
	// from NumServers and NetBandwidth: snappy only where the link makes
	// it pay, raw otherwise. Sessions treat it as the per-job default;
	// JobOptions.MsgCodec overrides it for one Submit.
	MsgCodec *compress.Mode
	// Comm selects hybrid/dense/sparse wire encoding (default hybrid).
	Comm comm.ModeChoice
	// SparsityThreshold overrides the 0.8 hybrid switch point if positive.
	SparsityThreshold float64
	// Replication selects All-in-All (default) or On-Demand (§IV-A).
	Replication ReplicationPolicy
	// MaxSupersteps bounds the superstep loop. Default 100. Sessions treat
	// it as the per-job default; JobOptions.MaxSupersteps overrides it for
	// one Submit.
	MaxSupersteps int
	// BloomSkip enables sparse-superstep handling (§III-C-4 and
	// frontier.go): tiles none of whose sources changed in the previous
	// step are skipped, and loaded tiles re-gather only the rows with a
	// changed in-neighbour. Off, every step sweeps every row of every tile.
	// Programs must meet the Program idempotence contract to run with it on.
	BloomSkip bool
	// BloomCheckLimit is the largest updated-vertex count for which the
	// tiles' Bloom filters are consulted; above it only the source-range
	// test can skip a tile. Default 1024.
	BloomCheckLimit int
	// DiskFailureHook, when non-nil, is installed on every server's local
	// tile store — failure injection for tests (see disk.Store).
	DiskFailureHook func(server int, op, name string) error
	// CheckpointEvery, when positive, writes a consistent checkpoint of
	// the vertex state every that-many supersteps, enabling crash recovery
	// (see checkpoint.go and recovery.go). Requires All-in-All
	// replication. Sessions treat it as the per-job default;
	// JobOptions.CheckpointEvery overrides it for one Submit.
	// costmodel.CheckpointEverySteps computes Young's-formula guidance for
	// this knob.
	CheckpointEvery int
	// MaxConcurrentJobs, when > 1, turns the session multi-tenant: up to
	// that many Submits run interleaved over the shared tile stores and
	// caches, each tagged with a per-job ID so their wire traffic, barriers
	// and checkpoints never alias (see docs/ARCHITECTURE.md, "Multi-tenant
	// scheduling"). Admission beyond the level queues (MaxQueuedJobs);
	// fairness at step edges is weighted round-robin (JobOptions.Weight).
	// Values ≤ 1 select the classic serial session; the level is capped at
	// costmodel.MaxJobSlots. Multi-tenant sessions run without the
	// sweep-ahead prefetcher (it assumes one sweep owns the disk);
	// concurrent jobs instead share tile reads through the cache's
	// single-flight loads and the cross-job share window.
	MaxConcurrentJobs int
	// MaxQueuedJobs bounds how many Submits may wait for admission when
	// MaxConcurrentJobs jobs are already running; further Submits fail fast
	// with ErrJobQueueFull. 0 picks costmodel.JobQueueBound.
	MaxQueuedJobs int
	// FailureTimeout, when positive, arms the cluster's failure detector:
	// a server whose barrier vote or update traffic stalls for this long
	// is declared dead by the survivors. Without it, only self-declared
	// crashes are detected — a hung server blocks the job forever.
	FailureTimeout time.Duration
	// Faults scripts deterministic failures into the session — server
	// kills, disk-op errors, dropped or duplicated wire frames (see
	// fault.go). nil injects nothing.
	Faults *FaultPlan
}

// ResidencyMode selects how tile data lives in memory during a superstep
// sweep (see costmodel.Residency for the crossover model).
type ResidencyMode int

const (
	// ResidencyAuto lets the costmodel pick per session from the expected
	// cached working set and the cache capacity.
	ResidencyAuto ResidencyMode = iota
	// ResidencyCached forces the edge-cache tier: resident tiles hit,
	// misses load with policy-controlled admission.
	ResidencyCached
	// ResidencyStreaming forces the GraphD-style streaming tier: every
	// tile streams through pooled scratch each sweep and the edge cache is
	// bypassed. The right regime when the budget is far below the working
	// set — the cache's churn and admission work buy almost no hits there.
	ResidencyStreaming
)

// String returns the tier name used in stats output and CLI flags.
func (r ResidencyMode) String() string {
	switch r {
	case ResidencyAuto:
		return "auto"
	case ResidencyCached:
		return "cached"
	case ResidencyStreaming:
		return "streaming"
	default:
		return fmt.Sprintf("residency(%d)", int(r))
	}
}

// MarshalJSON encodes the tier as its String name — the stable wire form
// of ServerStats.Residency in the graphhd daemon's JSON schema.
func (r ResidencyMode) MarshalJSON() ([]byte, error) { return json.Marshal(r.String()) }

// UnmarshalJSON parses the name form written by MarshalJSON.
func (r *ResidencyMode) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	mode, err := ResidencyByName(name)
	if err != nil {
		return err
	}
	*r = mode
	return nil
}

// ResidencyByName parses a residency name ("auto", "cached", "streaming")
// as printed by ResidencyMode.String.
func ResidencyByName(name string) (ResidencyMode, error) {
	switch name {
	case "auto":
		return ResidencyAuto, nil
	case "cached":
		return ResidencyCached, nil
	case "streaming":
		return ResidencyStreaming, nil
	default:
		return 0, fmt.Errorf("core: unknown residency %q (want auto, cached or streaming)", name)
	}
}

// DefaultConfig returns the paper's default engine configuration for an
// N-server cluster: hybrid communication with message compression where
// the link pays for it, automatic cache-mode selection with unlimited
// capacity, All-in-All replication and Bloom tile skipping.
func DefaultConfig(numServers int) Config {
	return Config{
		NumServers:      numServers,
		CacheAuto:       true,
		CachePolicyAuto: true,
		BloomSkip:       true,
	}
}

func (c Config) normalized() Config {
	if c.NumServers <= 0 {
		c.NumServers = 1
	}
	if c.WorkersPerServer <= 0 {
		c.WorkersPerServer = runtime.GOMAXPROCS(0) / c.NumServers
		if c.WorkersPerServer < 1 {
			c.WorkersPerServer = 1
		}
	}
	if c.MaxSupersteps <= 0 {
		c.MaxSupersteps = 100
	}
	if c.BloomCheckLimit <= 0 {
		c.BloomCheckLimit = 1024
	}
	if c.CheckpointEvery < 0 {
		c.CheckpointEvery = 0
	}
	if c.CheckpointEvery > 255 {
		// The step byte framing update batches disambiguates stale frames
		// only while replay never reaches 256 steps; cap the interval there
		// (a 255-step checkpoint interval is already past any useful
		// Young's-formula answer).
		c.CheckpointEvery = 255
	}
	c.MaxConcurrentJobs = costmodel.ClampConcurrency(c.MaxConcurrentJobs)
	if c.MaxQueuedJobs <= 0 {
		c.MaxQueuedJobs = costmodel.JobQueueBound(c.MaxConcurrentJobs)
	}
	return c
}

// Input names the engine's data source: either an in-memory partition or a
// manifest of SPE output persisted in the DFS.
type Input struct {
	// Partition supplies pre-partitioned tiles directly (testing and
	// single-process pipelines).
	Partition *tile.Partition
	// SPE and Manifest locate tiles in the DFS (the production pipeline of
	// Figure 3: raw graph → SPE → tiles → MPE).
	SPE      *spe.Engine
	Manifest *spe.Manifest
}

// Engine is the MPE. One Engine value can run many programs.
type Engine struct {
	cfg Config
}

// New creates an engine with the given configuration.
func New(cfg Config) *Engine { return &Engine{cfg: cfg.normalized()} }

// tileMeta is the in-memory descriptor a server keeps per assigned tile;
// the tile body itself lives on local disk and in the edge cache.
type tileMeta struct {
	id       int
	blob     string // precomputed store name, hot-path reads avoid Sprintf
	lo, hi   uint32
	encBytes int64
	// srcMin and srcMax bound the tile's source ids (srcMin > srcMax when it
	// has no edges): the frontier's cheap first-stage skip test.
	srcMin, srcMax uint32
	filter         interface {
		ContainsAny([]uint32) bool
		SizeBytes() int
	}
}

// newTileMeta builds the descriptor of a freshly decoded tile whose encoded
// form is encBytes long, taking ownership of the tile's Bloom filter.
func (s *server) newTileMeta(id int, tl *csr.Tile, encBytes int) *tileMeta {
	meta := &tileMeta{id: id, blob: tileBlobName(id), lo: tl.TargetLo, hi: tl.TargetHi, encBytes: int64(encBytes)}
	meta.srcMin, meta.srcMax = tl.SourceRange()
	if tl.Filter != nil {
		meta.filter = tl.Filter
		s.bloomBytes += int64(tl.Filter.SizeBytes())
		tl.Filter = nil // meta owns it now; a reused tile's next decode allocates anew
	}
	return meta
}

// Run executes the program on the input until convergence or MaxSupersteps.
// It is the one-shot convenience path: a session is opened, the program
// submitted once with the Config's per-job defaults, and the session closed
// again. Callers running several programs over the same input should hold a
// Session instead and amortize the setup.
func (e *Engine) Run(in Input, prog Program) (*Result, error) {
	se, err := Open(in, e.cfg)
	if err != nil {
		return nil, err
	}
	defer se.Close()
	return se.Submit(context.Background(), prog, JobOptions{})
}

// atomicMax lock-freely raises *dst to v if v is larger.
func atomicMax(dst *int64, v int64) {
	for {
		cur := atomic.LoadInt64(dst)
		if v <= cur || atomic.CompareAndSwapInt64(dst, cur, v) {
			return
		}
	}
}

// prepareInput normalizes the two input kinds into a graph descriptor, the
// tile count, and a fetch function that returns encoded tile bytes.
func prepareInput(in Input) (*Graph, int, func(i int) ([]byte, error), error) {
	switch {
	case in.Partition != nil:
		p := in.Partition
		g := &Graph{
			NumVertices: p.NumVertices,
			NumEdges:    p.NumEdges,
			OutDeg:      p.OutDeg,
			InDeg:       p.InDeg,
			Weighted:    p.Weighted,
		}
		// Pre-encode each tile once, guarded per tile rather than by one
		// global lock, so the servers' setup fetches encode concurrently.
		encoded := make([][]byte, p.NumTiles())
		onces := make([]sync.Once, p.NumTiles())
		fetch := func(i int) ([]byte, error) {
			onces[i].Do(func() { encoded[i] = p.Tiles[i].AppendEncode(nil) })
			return encoded[i], nil
		}
		return g, p.NumTiles(), fetch, nil
	case in.SPE != nil && in.Manifest != nil:
		m := in.Manifest
		in2, out, err := in.SPE.FetchDegrees(m)
		if err != nil {
			return nil, 0, nil, err
		}
		g := &Graph{
			NumVertices: m.NumVertices,
			NumEdges:    m.NumEdges,
			OutDeg:      out,
			InDeg:       in2,
			Weighted:    m.Weighted,
		}
		d := in.SPE.DFS
		fetch := func(i int) ([]byte, error) { return d.ReadFile(m.TilePaths[i]) }
		return g, m.NumTiles(), fetch, nil
	default:
		return nil, 0, nil, fmt.Errorf("core: input needs either Partition or SPE+Manifest")
	}
}

// nodeShared is the state every job runner on one server shares — and, in
// a serial session, the holder of the server's death flag. One value per
// simulated server, created by Open before the cluster boots.
type nodeShared struct {
	// dead marks a killed or fenced server: its job loop (and, in a
	// multi-tenant session, every runner spawned on it) becomes a zombie.
	// Only a join clears it, under the session's regMu with no job in
	// flight, so no runner ever sees it clear.
	dead atomic.Bool

	// joins counts this node's readmissions (elastic membership), a
	// session-lifetime counter like the I/O totals. It lives here rather
	// than on the server because in a multi-tenant session the per-job
	// runner clones must all observe the node's cumulative count.
	joins atomic.Int64

	// Quiesce gate: counts the serial goroutines that may still touch this
	// node's per-job server state — runJob and its pipelined receive
	// goroutine, which a killed runner leaves unwinding. A node revived
	// between jobs runs its next job on the killed runner's struct, so the
	// join waits the count out first (quiesceWait).
	qMu    sync.Mutex
	qCount int
	qZero  chan struct{}

	// Multi-tenant plumbing, nil in serial sessions. The router pointer is
	// atomic because the join controller swaps a fresh router into a
	// rejoined node (the old one's done channel is permanently closed) from
	// its own goroutine.
	gate      *stepGate                   // WRR turnstile at superstep edges
	share     *cache.ShareWindow          // cross-job tile sharing
	router    atomic.Pointer[frameRouter] // inbox demultiplexer
	sched     *jobScheduler               // session-level admission (slot masks)
	recoverMu sync.Mutex                  // serializes tile reconciliation across runners
}

// quiesceEnter registers a goroutine that touches this node's per-job
// server state; pair with quiesceExit.
func (sh *nodeShared) quiesceEnter() {
	sh.qMu.Lock()
	if sh.qCount == 0 {
		sh.qZero = make(chan struct{})
	}
	sh.qCount++
	sh.qMu.Unlock()
}

func (sh *nodeShared) quiesceExit() {
	sh.qMu.Lock()
	sh.qCount--
	if sh.qCount == 0 {
		close(sh.qZero)
	}
	sh.qMu.Unlock()
}

// quiesceWait blocks until every registered goroutine has exited.
func (sh *nodeShared) quiesceWait() {
	sh.qMu.Lock()
	if sh.qCount == 0 {
		sh.qMu.Unlock()
		return
	}
	ch := sh.qZero
	sh.qMu.Unlock()
	<-ch
}

// server is the per-node execution state of one session: the long-lived
// tile store, cache, metadata and scratch buffers, plus the per-job fields
// runJob re-points at every Submit. In a multi-tenant session a server
// value is additionally cloned per admitted job (jobRunner): the clones
// share the session-lifetime state and diverge in everything per-job.
type server struct {
	cfg   Config
	node  *cluster.Node
	graph *Graph
	fetch func(i int) ([]byte, error)
	tiles []int
	total int
	work  string

	// Session-lifetime state: persisted tiles, cache contents and scratch
	// capacity all survive across jobs (that is the point of a session).
	store      *disk.Store
	cache      *cache.Cache
	metas      []*tileMeta
	members    []uint32 // OnDemand replica members; nil under AllInAll
	bloomBytes int64
	state      *Replicas
	// frontier is the set of vertices the previous superstep changed (see
	// frontier.go); stepsBuf backs the job's step record. Both keep their
	// storage across jobs.
	frontier frontier
	stepsBuf []StepStats

	// Per-job state, reset by runJob: the program, its context and
	// effective knobs, and the result being filled.
	prog     Program
	ctx      context.Context
	maxSteps int
	msgCodec compress.Mode
	progress func(StepStats)
	result   *Result
	jobsRun  int

	// Steady-state scratch, sized once in setup so the superstep loop
	// allocates O(changed vertices), not O(edges):
	// one workerScratch per worker, one update buffer and outcome slot per
	// tile, the batch the end-of-step frame merges the deferred tiles into,
	// one reused batch for decoding received broadcasts, and one staging
	// slice per peer for updates received mid-compute.
	scratch   []*workerScratch
	outs      []tileOut
	updBufs   [][]comm.Update
	endBatch  comm.Batch
	recvBatch comm.Batch
	staged    [][]comm.Update

	// sender is the pipelined broadcast subsystem, nil on a single-server
	// cluster: it is the only way update batches leave a server.
	sender *cluster.Sender

	// Adaptive send-queue sizing state: the current per-destination
	// capacity, whether the engine may resize it (serial runners only), the
	// stall counter at the last adjustment, and how many consecutive
	// adjustments saw zero stalls.
	queueCap      int
	adaptiveQueue bool
	lastStalls    int64
	quietSteps    int

	// pf is the sweep-ahead tile prefetcher (nil when off); pfDepth its
	// window; residency the resolved tile-residency tier. All three are
	// session-lifetime — the prefetcher's reader workers and staged-tile
	// pools stay warm across jobs.
	pf        *prefetcher
	pfDepth   int
	residency ResidencyMode

	// Fault tolerance. workRoot is the session work directory (recovery
	// reads dead peers' tile blobs from their subdirectories); baseOwner
	// is the session's immutable tile→server ownership table as assigned
	// at Open, shared by every server and runner (recovery re-deals a dead
	// server's tiles as a pure function of it); recvdFrom, announced and
	// seenTiles are the counted receive's per-step tallies — distinct tile
	// frames received from each peer, the count its end-of-step frame
	// announced (-1 until it arrives), and a distinct-tile bitset that
	// defeats duplicated frames; faults is the compiled fault plan;
	// shared.dead marks a killed or fenced server (its job loop becomes a
	// zombie).
	workRoot  string
	baseOwner []int
	recvdFrom []int
	announced []int
	seenTiles []uint64
	faults    *compiledFaults
	shared    *nodeShared

	// Multi-tenant runner identity, zero on serial servers: the job's wire
	// tag, its share-window slot bit, its WRR weight, its mailbox from the
	// frame router, this runner's privately acknowledged membership epoch,
	// and the count of tiles taken from the share window instead of disk.
	multi      bool
	jobID      uint32
	slotBit    uint64
	jobWeight  int
	rtr        *frameRouter // the router this runner registered with
	mailbox    *jobMailbox
	ackedEpoch uint64
	shareHits  int64

	// Per-job checkpoint/recovery state: the effective interval, the blob
	// encode buffer, the retained checkpoint steps, the marker-exchange
	// scratch, and the stats counters fillServerStats snapshots.
	ckptEvery    int
	ckptBuf      []byte
	ckptSteps    []int
	markerBuf    []byte
	markerSeen   []bool
	ckptCount    int
	ckptBytes    int64
	tilesAdopted int
	recoveries   int
	recoveryTime time.Duration
}

// runJob executes one submitted program on this server: per-job state is
// reset (vertex values, halt votes, send queues), the superstep loop runs
// against the warm tile store and cache, and on success the result is
// collected and the per-server statistics filled.
// The returned error is nil for both success and cancellation — a
// cancelled job leaves the session healthy — and non-nil only for hard
// errors that abort the whole session.
func (s *server) runJob(jb *job) (fatal error) {
	if s.shared.dead.Load() {
		// A killed or fenced server is a zombie: it consumes submissions
		// so Submit's fan-out never blocks, but contributes nothing. The
		// survivors fill the result.
		return nil
	}
	degradedStart := false
	if !s.multi && s.node.MembershipStale() {
		// The membership changed since this node last acknowledged it — a
		// death detected after the previous job's final barrier, a rejoin
		// admitted between jobs, or a declaration racing this very job's
		// start (a sibling runner can enter, reach superstep 0
		// and crash before this runner executes its entry block; the
		// survivors that entered earlier are then already parked inside
		// recoverFromFailure). When the job can recover, converge through
		// the same protocol those siblings are running — a silent local
		// reconcile here would leave them waiting at the recovery barrier
		// until a timeout falsely fences this server. A job without the
		// recovery protocol (no checkpointing, or not All-in-All) cannot
		// have siblings parked there, so the stale view is necessarily a
		// between-jobs change every runner observes at entry: acknowledge
		// and converge the tile holdings locally before any counted
		// receive derives its expectations from them.
		_, alive := s.node.AckMembership()
		if !alive[s.node.ID()] {
			_ = s.die(true)
			return nil
		}
		if jb.ckptEvery > 0 && s.cfg.Replication == AllInAll && s.node.NumNodes() > 1 {
			degradedStart = true
		} else if err := s.reconcileTiles(alive); err != nil {
			jb.errs[s.node.ID()] = err
			return err
		}
	}
	if s.multi {
		// Pin this runner's membership view before any traffic: the epoch
		// is the runner's private staleness reference (sibling runners ack
		// the node-level one). A cluster that already lost members needs
		// this job's ownership table reconciled to the survivors — that
		// runs below, once the per-job plumbing exists, through the same
		// recovery protocol a mid-job failure uses.
		epoch, alive := s.node.AckMembership()
		s.ackedEpoch = epoch
		if !alive[s.node.ID()] {
			s.die(true)
			return nil
		}
		live := 0
		for _, ok := range alive {
			if ok {
				live++
			}
		}
		degradedStart = live < s.node.NumNodes()
	}
	defer func() {
		// Drop the per-job references on the way out: an idle session must
		// not pin the finished job's Result vector, the caller's Progress
		// closure, its context, or the program value.
		s.prog, s.ctx, s.progress, s.result = nil, nil, nil, nil
	}()
	s.prog = jb.prog
	s.ctx = jb.ctx
	s.maxSteps = jb.maxSteps
	s.msgCodec = jb.codec
	s.progress = jb.progress
	s.result = jb.res
	s.ckptEvery = jb.ckptEvery
	s.ckptCount, s.ckptBytes = 0, 0
	s.tilesAdopted, s.recoveries, s.recoveryTime = 0, 0, 0
	if err := s.clearCheckpoints(); err != nil {
		jb.errs[s.node.ID()] = err
		return err
	}
	for i := range s.staged {
		s.staged[i] = s.staged[i][:0]
	}
	s.initJobState()
	if s.jobsRun > 0 {
		// Cross-job epoch continuity: the boundary between two jobs is one
		// more superstep boundary on the CLOCK policy's reference clock, so
		// tiles the previous job kept hot stay protected into this one.
		s.cache.AdvanceEpoch()
	}
	s.jobsRun++

	if s.node.NumNodes() > 1 {
		// The pipelined subsystem is rebuilt per job, but the adaptive
		// queue capacity carries over so a warm session keeps its learned
		// sizing.
		if s.queueCap <= 0 {
			s.queueCap = initialQueueCap
			s.adaptiveQueue = true
		}
		s.sender = s.node.NewSender(s.queueCap)
		defer func() {
			if s.sender != nil {
				s.sender.Close()
				s.sender = nil
			}
		}()
	}

	if degradedStart {
		// The cluster was already degraded when this runner acked its
		// membership view. Sibling runners of the same job may have started
		// earlier and observed the death mid-step instead — those are now
		// inside recoverFromFailure, parked at the job's recovery barrier.
		// A silent local reconcile would leave them waiting until a timeout
		// falsely fences this server, so a degraded start converges through
		// the same protocol: barrier, marker exchange, reconcile, restore.
		if _, err := s.recoverFromFailure(); err != nil {
			if errors.Is(err, errServerKilled) {
				jb.steps[s.node.ID()] = nil
				return nil
			}
			jb.errs[s.node.ID()] = err
			return err
		}
	}

	loopStart := time.Now()
	steps, err := s.superstepLoop()
	jb.steps[s.node.ID()] = steps
	if err != nil {
		if errors.Is(err, errServerKilled) {
			// This server died mid-job (scripted kill or fencing). Its
			// partial step stats would pollute the merged result, and the
			// session must stay usable: report nothing, become a zombie.
			jb.steps[s.node.ID()] = nil
			return nil
		}
		var jc jobCancelled
		if errors.As(err, &jc) {
			jb.cancels[s.node.ID()] = jc.cause
			return nil
		}
		jb.errs[s.node.ID()] = err
		return err
	}
	atomicMax(&jb.loopMax, int64(time.Since(loopStart)))

	if err := s.collectResult(); err != nil {
		if errors.Is(err, errServerKilled) {
			// Fenced during result assembly: same zombie exit as a mid-loop
			// death — the partial stats are dropped, survivors fill the rest.
			jb.steps[s.node.ID()] = nil
			return nil
		}
		jb.errs[s.node.ID()] = err
		return err
	}
	if s.pf != nil {
		// Park the prefetcher: any straggling batch finishes and unclaimed
		// staging is flushed, so the stats below are settled and the next
		// job starts clean.
		s.pf.drain()
	}
	if s.multi {
		// Job-scoped checkpoints die with the job. Best-effort: a removal
		// error cannot fail a job that already produced its result, and the
		// blobs are uniquely named, so leaks die with the work directory.
		for _, step := range s.ckptSteps {
			_ = s.store.Remove(s.ckptName(step))
		}
		s.ckptSteps = s.ckptSteps[:0]
	}
	s.fillServerStats()
	return nil
}

// initJobState resets the vertex replicas to the program's initial values
// and, with them, the frontier: no delta describes a freshly written state.
// The backing arrays are session-lifetime; only the values are per-job.
func (s *server) initJobState() {
	s.frontier.reset()
	if s.cfg.Replication == OnDemand {
		if s.state == nil {
			s.state = newOnDemandState(s.members)
		}
		for _, v := range s.members {
			s.state.set(v, s.prog.InitValue(v, s.graph))
		}
		return
	}
	if s.state == nil {
		s.state = NewReplicas(make([]float64, s.graph.NumVertices))
	}
	for v := uint32(0); v < s.graph.NumVertices; v++ {
		s.state.values[v] = s.prog.InitValue(v, s.graph)
	}
}

// workerScratch is one worker's reusable memory for the superstep hot path:
// decoded-tile storage for cache misses and compressed-cache hits, the
// local-disk read buffer, the outgoing wire buffer, and the batch header
// handed to the encoder.
type workerScratch struct {
	tile  csr.Tile
	disk  []byte
	wire  []byte
	batch comm.Batch
}

func tileBlobName(i int) string { return fmt.Sprintf("tiles/%05d", i) }

// setup fetches assigned tiles to local disk, builds tile metadata, sizes
// the edge cache and the per-tile scratch, and records the OnDemand member
// set (Algorithm 5 lines 1–4, minus the per-program vertex initialization
// that initJobState performs at every Submit). It runs once per session.
func (s *server) setup() error {
	var err error
	s.store, err = disk.NewStore(s.work, s.cfg.Disk)
	if err != nil {
		return err
	}
	if hook := s.cfg.DiskFailureHook; hook != nil {
		id := s.node.ID()
		s.store.SetFailureHook(func(op, name string) error { return hook(id, op, name) })
	}

	var totalEnc int64
	var memberSet map[uint32]struct{}
	if s.cfg.Replication == OnDemand {
		memberSet = make(map[uint32]struct{})
	}
	var tl csr.Tile // reused across tiles; only the filter is retained
	ingest := func(i int, enc []byte) error {
		if err := s.store.Write(tileBlobName(i), enc); err != nil {
			return err
		}
		if err := csr.DecodeInto(&tl, enc); err != nil {
			return fmt.Errorf("core: server %d decoding tile %d: %w", s.node.ID(), i, err)
		}
		s.metas = append(s.metas, s.newTileMeta(i, &tl, len(enc)))
		totalEnc += int64(len(enc))
		if memberSet != nil {
			for v := tl.TargetLo; v < tl.TargetHi; v++ {
				memberSet[v] = struct{}{}
			}
			for _, src := range tl.Col {
				memberSet[src] = struct{}{}
			}
		}
		return nil
	}

	// Prefetch assigned tiles with a bounded in-flight window instead of
	// fetching serially — the SPE/DFS path reads each manifest tile from the
	// distributed store, so overlapping those reads cuts multi-server setup
	// time the same way the partition path's per-tile pre-encode does.
	// Slots are acquired in tile order and released as results are ingested,
	// so at most `window` fetched tiles are ever held in memory and the
	// ordered consumer can never deadlock behind later fetches.
	type fetched struct {
		enc []byte
		err error
	}
	window := s.cfg.WorkersPerServer * 2
	if window < 4 {
		window = 4
	}
	if window > len(s.tiles) {
		window = len(s.tiles)
	}
	results := make([]chan fetched, len(s.tiles))
	for idx := range results {
		results[idx] = make(chan fetched, 1)
	}
	sem := make(chan struct{}, window)
	var aborted atomic.Bool
	errAborted := errors.New("setup aborted")
	go func() {
		for idx, i := range s.tiles {
			sem <- struct{}{}
			go func(idx, i int) {
				// Post-error fetches short-circuit: every tile still
				// produces exactly one result (so the accounting below
				// cannot deadlock) but no further I/O happens.
				if aborted.Load() {
					results[idx] <- fetched{err: errAborted}
					return
				}
				enc, err := s.fetch(i)
				results[idx] <- fetched{enc: enc, err: err}
			}(idx, i)
		}
	}()
	// On an error the remaining in-flight fetches are drained off the
	// caller's path so neither they nor the dispatcher leak.
	drainFrom := func(idx int) {
		aborted.Store(true)
		go func() {
			for ; idx < len(s.tiles); idx++ {
				<-results[idx]
				<-sem
			}
		}()
	}
	for idx, i := range s.tiles {
		r := <-results[idx]
		<-sem
		if r.err != nil {
			drainFrom(idx + 1)
			return fmt.Errorf("core: server %d fetching tile %d: %w", s.node.ID(), i, r.err)
		}
		if err := ingest(i, r.enc); err != nil {
			drainFrom(idx + 1)
			return err
		}
	}

	s.scratch = make([]*workerScratch, s.cfg.WorkersPerServer)
	for w := range s.scratch {
		s.scratch[w] = new(workerScratch)
	}
	s.outs = make([]tileOut, len(s.metas))
	s.updBufs = make([][]comm.Update, len(s.metas))
	s.staged = make([][]comm.Update, s.node.NumNodes())

	// The per-step receive tallies, sized for the cluster and tile count.
	s.recvdFrom = make([]int, s.node.NumNodes())
	s.announced = make([]int, s.node.NumNodes())
	s.seenTiles = make([]uint64, (s.total+63)/64)

	capacity := s.cfg.CacheCapacity
	switch {
	case capacity == 0:
		capacity = math.MaxInt64
	case capacity < 0:
		capacity = 0
	}
	mode := s.cfg.CacheMode
	if s.cfg.CacheAuto {
		mode = compress.SelectCacheMode(totalEnc, capacity)
	}
	// The bytes competing for capacity are the tiles as the chosen mode
	// stores them: decoded (≈ encoded size) for mode None, an expected
	// γ-fold smaller for the compressed modes.
	expectedCached := int64(float64(totalEnc) / mode.ExpectedRatio())
	policy := s.cfg.CachePolicy
	if s.cfg.CachePolicyAuto {
		policy = cache.AdmitNoEvict
		if costmodel.SelectClockPolicy(expectedCached, capacity) {
			policy = cache.Clock
		}
	}
	s.cache, err = cache.NewWithPolicy(capacity, mode, policy)
	if err != nil {
		return err
	}

	// Residency tier: past the streaming crossover the cache machinery buys
	// almost no hits, so tiles flow through worker scratch instead (the
	// cache object stays — empty — for uniform stats accounting).
	s.residency = s.cfg.Residency
	if s.residency == ResidencyAuto {
		s.residency = ResidencyCached
		if costmodel.SelectResidency(expectedCached, capacity) == costmodel.ResidencyStreaming {
			s.residency = ResidencyStreaming
		}
	}

	// Sweep-ahead prefetch window: sized from the expected miss ratio (a
	// full-residency cache needs none), or forced by the knob. The
	// prefetcher and its reader workers live for the whole session.
	depth := s.cfg.PrefetchDepth
	if s.cfg.MaxConcurrentJobs > 1 {
		// Multi-tenant sessions run without the prefetcher: its sweep-position
		// model assumes one job owns the tile order, and concurrent sweeps
		// would evict each other's staging. Cross-job reuse comes from the
		// single-flight cache loads and the share window instead.
		depth = -1
	}
	if depth == 0 {
		effCap := capacity
		if s.residency == ResidencyStreaming {
			effCap = 0 // every sweep misses everything
		}
		depth = costmodel.PrefetchDepth(expectedCached, effCap, s.cfg.WorkersPerServer)
	}
	if depth > 0 {
		s.pfDepth = depth
		s.pf = newPrefetcher(s.store, s.cache, s.total, depth, s.residency == ResidencyCached)
	}

	if s.cfg.Replication == OnDemand {
		for v := range memberSet {
			s.members = append(s.members, v)
		}
	}
	return nil
}

// superstepLoop is Algorithm 5 lines 5–22, plus adaptive send-queue
// resizing between the BSP barriers. It is re-entrant per session: every
// per-job quantity — halt votes, the frontier, step stats — lives in locals
// or in fields runJob reset, while tiles, cache and scratch stay warm.
//
// Cancellation is decided at the step-end barrier: each server votes its
// context's state, and the OR of the votes aborts all servers at the same
// step edge with no update traffic left in flight (the vote barrier is the
// same barrier that already guarantees every batch of the step has been
// absorbed).
func (s *server) superstepLoop() ([]StepStats, error) {
	n := s.node
	encOpts := comm.Options{
		Choice:            s.cfg.Comm,
		SparsityThreshold: s.cfg.SparsityThreshold,
		Codec:             s.msgCodec,
	}
	crew := s.startCrew(encOpts)
	defer crew.stop()

	// The step record reuses the server's buffer from job to job (Submit's
	// mergeSteps copies the rows out before this server can start another
	// job), so a warm job appends into settled capacity.
	steps := s.stepsBuf[:0]
	defer func() { s.stepsBuf = steps[:0] }()

	for step := 0; step < s.maxSteps; step++ {
		if s.multi {
			// WRR turnstile: among the jobs waiting to start a step on this
			// server, the smallest (step+1)/weight key goes first. A job
			// mid-step is not waiting and is never throttled here.
			s.shared.gate.arrive(s.jobID, s.jobWeight, step)
		}
		if step > 0 {
			// Superstep boundary: one full cyclic sweep over the assigned
			// tiles has completed. The CLOCK eviction policy keys its
			// reference bits on this epoch counter (§IV-B extension). With
			// concurrent runners the epoch advances once per runner per step —
			// a faster reference clock, which only shifts CLOCK eviction
			// quality, never results.
			s.cache.AdvanceEpoch()
		}
		st, updatedTotal, err := s.runStep(step, crew)
		if err != nil {
			if !s.canRecover(err) {
				return steps, err
			}
			// Recovery rewrites the vertex state (checkpoint restore or
			// restart), which also marks the frontier unknown: the first
			// replayed step sweeps densely, later ones select again.
			crew.settle()
			restore, rerr := s.recoverFromFailure()
			if rerr != nil {
				return steps, rerr
			}
			if restore < step {
				// Rewind the step record to the restore point: the replayed
				// steps re-append identical rows (re-execution is
				// bit-identical, so the Updated series repeats exactly; only
				// timings and per-server byte shares differ).
				for len(steps) > 0 && steps[len(steps)-1].Superstep > restore {
					steps = steps[:len(steps)-1]
				}
				step = restore // the loop increment resumes at restore+1
				continue
			}
			// The step failed after writing its checkpoint, and that
			// checkpoint is the restore point: every survivor completed the
			// step and resumes after it, so its row stands as if it passed.
			updatedTotal = st.Updated
		}
		steps = append(steps, st)
		if s.progress != nil && n.ID() == s.coordRank() {
			// Live progress, streamed at the barrier edge from the
			// coordinator (the lowest live rank — the role fails over).
			// Superstep/Updated are global; the byte and tile counters are
			// this server's local share.
			s.progress(st)
		}
		if updatedTotal == 0 {
			break
		}
		if s.adaptiveQueue && s.sender != nil {
			s.adaptSendQueue()
		}
	}
	return steps, nil
}

// stepCrew is the goroutine crew of one job's superstep loop on one server:
// T tile workers fed tile indices over work and, on a multi-server cluster,
// one receiver fed step numbers over recvReq. It lives for the whole job so a
// superstep starts no goroutine and allocates nothing; runStep publishes the
// step number before feeding, and the channel sends order that write before
// the crew's reads.
type stepCrew struct {
	s       *server
	encOpts comm.Options
	step    int

	work    chan int
	tiles   sync.WaitGroup // tiles of the current step still being processed
	workers sync.WaitGroup // worker goroutines, joined by stop

	recvReq chan int   // nil on a single server, which receives nothing
	recvRes chan error // capacity 1: at most one receive is outstanding
	// pending is set while a requested receive's result has not been read.
	// runStep can return with it set (a tile or flush error, a scripted
	// mid-step kill); the loop then either ends the job or calls settle
	// before it steps again, so a step never reads an earlier step's result.
	pending bool
}

// startCrew starts the crew for the job this server is about to loop over.
func (s *server) startCrew(encOpts comm.Options) *stepCrew {
	// One slot of buffer lets the feed loop run a tile ahead of the workers,
	// so its prefetcher.reach for tile k+1 is not held up until a worker
	// blocks inside tile k (measured on the out-of-core path: without the
	// slot, steps are ≈ 15 % longer at the same device time).
	c := &stepCrew{s: s, encOpts: encOpts, work: make(chan int, 1)}
	c.workers.Add(s.cfg.WorkersPerServer)
	for w := 0; w < s.cfg.WorkersPerServer; w++ {
		go c.tileWorker(s.scratch[w])
	}
	if s.sender != nil {
		c.recvReq = make(chan int)
		c.recvRes = make(chan error, 1)
		// ctx rides in as an argument, not via the s.ctx field: on a hard
		// error the loop returns without joining the receiver, which then
		// must not race runJob's per-job field teardown (the cluster abort
		// or the membership interrupt is what unblocks and ends it). In a
		// serial session the straggler holds the node's quiesce gate for the
		// crew's lifetime.
		if !s.multi {
			s.shared.quiesceEnter()
		}
		go c.receiver(s.ctx, s.receiveStep)
	}
	return c
}

func (c *stepCrew) tileWorker(scr *workerScratch) {
	defer c.workers.Done()
	for k := range c.work {
		c.s.outs[k] = c.s.processTile(k, c.step, c.encOpts, scr)
		c.tiles.Done()
	}
}

func (c *stepCrew) receiver(ctx context.Context, recv func(context.Context, int) error) {
	if !c.s.multi {
		defer c.s.shared.quiesceExit()
	}
	for step := range c.recvReq {
		c.recvRes <- recv(ctx, step)
	}
}

// settle joins a receive that runStep abandoned and discards its result. It
// is called on the recovery path, before recovery rewrites the state the
// receive reads (ackedEpoch, the staging buffers): the membership change
// being recovered from is what ends the abandoned receive.
func (c *stepCrew) settle() {
	if c.pending {
		<-c.recvRes
		c.pending = false
	}
}

// stop ends the crew. Workers are always idle here (runStep joins every
// tile it fed) and are waited for; the receiver is only told to exit — after
// a step that returned without joining its receive it is still unwinding.
func (c *stepCrew) stop() {
	close(c.work)
	c.workers.Wait()
	if c.recvReq != nil {
		close(c.recvReq)
	}
}

// runStep executes one superstep: compute over the assigned tiles with the
// pipelined broadcast of dense tile batches, one end-of-step frame to every
// peer carrying the sparse ones, the counted receive of every live peer's
// frames, the step-end consensus barrier, and the checkpoint phase inside
// the barrier bracket. It returns the step's stats and the global updated
// count, and leaves the vertices it absorbed in s.frontier for the next
// step's sweep. A cluster.ErrMembershipChanged return means a peer died
// mid-step and the caller should run recovery.
func (s *server) runStep(step int, crew *stepCrew) (st StepStats, updatedTotal int, err error) {
	n := s.node
	st = StepStats{Superstep: step}
	// Step edge: request any scripted rejoin pinned to this step. It lands
	// between jobs.
	s.faults.fireRejoins(step)
	if k, ok := s.faults.killAt(n.ID(), step, KillAtStepStart); ok {
		return st, 0, s.die(k.Hang)
	}
	stepStart := time.Now()
	// Wire accounting multiplies each batch by the live peer count; dead
	// peers' frames are dropped at the transport and cost nothing.
	livePeers := int64(n.AliveCount() - 1)

	// Pipelined receive: decode foreign batches into per-sender scratch
	// as they arrive, concurrently with local compute. Applying waits
	// until compute finishes so every gather reads step-(k-1) values.
	crew.step = step
	// Every live peer sends an end-of-step frame, so there is something to
	// receive exactly when a peer is alive.
	receiving := crew.recvReq != nil && n.AliveCount() > 1
	if receiving {
		crew.recvReq <- step
		crew.pending = true
	}

	// Parallel tile processing on T workers (OpenMP pragma analog).
	if s.pf != nil {
		// New sweep: drain the previous step's staging and hand the
		// prefetcher this step's tile order and skip predicate.
		s.pf.restart(s.metas, &s.frontier)
	}
	crew.tiles.Add(len(s.metas))
	for k := range s.metas {
		if s.pf != nil {
			// Keep the staging window pfDepth tiles ahead of the feed
			// position; reach never blocks on I/O.
			s.pf.reach(k + s.pfDepth)
		}
		crew.work <- k
	}
	crew.tiles.Wait()
	for k := range s.outs {
		if err := s.outs[k].err; err != nil {
			return st, 0, err
		}
	}
	if s.sender != nil {
		end, err := s.broadcastEnd(step, crew.encOpts)
		if err != nil {
			return st, 0, err
		}
		st.SparseMsgs++
		st.WireBytes += int64(end.WireBytes) * livePeers
		st.RawBytes += int64(end.RawBytes) * livePeers
	}

	if k, ok := s.faults.killAt(n.ID(), step, KillMidStep); ok {
		// Mid-step: this server's frames are enqueued or on the wire, but
		// it will never finish receiving or reach the barrier. A pending
		// receive goroutine unwinds via the membership interrupt the death
		// provokes; it only touches this zombie's private scratch.
		return st, 0, s.die(k.Hang)
	}

	// Compute is over: nothing reads the old frontier any more, so start
	// recording this step's. Without tile skipping the frontier stays
	// unknown and every step is the full dense sweep.
	if s.cfg.BloomSkip {
		s.frontier.begin(s.graph.NumVertices, s.cfg.BloomCheckLimit)
	}
	absorb := func(ups []comm.Update) {
		for _, u := range ups {
			s.state.set(u.ID, u.Value)
		}
		updatedTotal += len(ups)
		s.frontier.add(ups)
	}

	for k := range s.outs {
		o := &s.outs[k]
		if o.skipped {
			st.SkippedTiles++
		} else {
			st.LoadedTiles++
		}
		st.GatheredEdges += o.gathered
		if !o.deferred {
			// A frame of its own: streamed to the peers, or, on a single
			// server, encoded for these counters only.
			if o.enc.Mode == comm.DenseMode {
				st.DenseMsgs++
			} else {
				st.SparseMsgs++
			}
			// Wire bytes: each batch went to every live peer.
			st.WireBytes += int64(o.enc.WireBytes) * livePeers
			st.RawBytes += int64(o.enc.RawBytes) * livePeers
		}
		absorb(o.updates)
	}

	// The Broadcast leg of GAB, receiver side: the concurrent receive loop
	// already decoded everything it could during compute; drain the send
	// queues (flush-at-barrier) even when there is nothing to receive, join
	// it, and apply the staged updates in sender-rank order.
	if s.sender != nil {
		if err := s.sender.Flush(); err != nil {
			return st, 0, err
		}
	}
	if receiving {
		err := <-crew.recvRes
		crew.pending = false
		if err != nil {
			return st, 0, err
		}
		for from := range s.staged {
			absorb(s.staged[from])
			s.staged[from] = s.staged[from][:0]
		}
	}

	st.Updated = updatedTotal
	st.Duration = time.Since(stepStart)

	if k, ok := s.faults.killAt(n.ID(), step, KillAtBarrier); ok {
		// This server absorbed the step but never votes; survivors detect
		// it at the barrier (instantly for a crash, by timeout for a hang).
		return st, 0, s.die(k.Hang)
	}

	// First barrier: every server has absorbed every update batch of
	// this step, so no update traffic is in flight afterwards. The same
	// barrier carries the cancellation consensus — if any server's
	// context is done, all servers abort here, at the same step edge,
	// leaving the transport clean for the session's next job.
	d, berr := s.barrierVote(s.ctx.Err() != nil)
	if berr != nil {
		return st, 0, berr
	}
	if d {
		if cerr := s.ctx.Err(); cerr != nil {
			return st, 0, jobCancelled{cause: cerr}
		}
		// The vote was forced by a broken barrier: a peer hit a hard
		// error and the cluster is aborting underneath us.
		return st, 0, fmt.Errorf("core: server %d: superstep barrier: %w", n.ID(), cluster.ErrClosed)
	}

	// Checkpoint phase, inside the barrier bracket: the vote barrier
	// above guarantees every server holds the identical fully-absorbed
	// step-`step` vector (a consistent cut — no update traffic is in
	// flight); the exit barrier below keeps anyone from starting step+1
	// traffic while blobs are still being written. The gate is computed
	// from per-job knobs and the globally-identical updatedTotal, so
	// either every server checkpoints or none does. The final step is
	// skipped: the job is about to end, there is nothing to resume into.
	if s.ckptEvery > 0 && updatedTotal != 0 && step+1 < s.maxSteps && (step+1)%s.ckptEvery == 0 {
		if err := s.writeCheckpoint(step, &st); err != nil {
			return st, 0, err
		}
		d, berr := s.barrierVote(false)
		if berr != nil {
			return st, 0, berr
		}
		if d {
			return st, 0, fmt.Errorf("core: server %d: checkpoint barrier: %w", n.ID(), cluster.ErrClosed)
		}
	}
	return st, updatedTotal, nil
}

// Update batches travel in two frame kinds. A dense tile's batch streams as
// [stepFrameMagic][step mod 256][comm payload] as soon as the tile is
// computed; the sparse tiles' batches ride the end-of-step frame,
// [endFrameMagic][step mod 256][u32 streamed-frame count][comm payload],
// one per peer per step. The magics (distinct from comm's raw 0xB7, the job
// envelope's 0xBA and the recovery marker's 0xC9) classify the frame; the
// step byte pins it to its superstep, so stale traffic is discarded instead
// of absorbed with wrong-step values. Stale frames arise two ways: a
// duplicated frame (scripted WireDuplicate) riding its FIFO link right
// behind the original can cross one step boundary, and a crashed server's
// in-flight frames for the interrupted step can outlive recovery (nothing
// forces their drain — the dead server sends no recovery marker). The step
// byte disambiguates both as long as a replayed step is never 256 steps
// away from the frame's origin, which CheckpointEvery < 256 guarantees.
const (
	stepFrameMagic = 0xB8
	endFrameMagic  = 0xBE
)

// endHeaderSize is an end-of-step frame's header: magic, step byte and the
// streamed-frame count.
const endHeaderSize = 1 + 1 + 4

// stepHeader starts a tile-batch frame for the given superstep. In a
// multi-tenant session the step header rides inside the job envelope
// (comm.AppendJobHeader), so job A's frames can never alias job B's even at
// the same superstep number.
func (s *server) stepHeader(dst []byte, step int) []byte {
	if s.multi {
		dst = comm.AppendJobHeader(dst, s.jobID)
	}
	return append(dst, stepFrameMagic, byte(step))
}

// endHeader starts the end-of-step frame of the given superstep, announcing
// how many tile frames this server streamed before it; job-enveloped like
// stepHeader.
func (s *server) endHeader(dst []byte, step, streamed int) []byte {
	if s.multi {
		dst = comm.AppendJobHeader(dst, s.jobID)
	}
	dst = append(dst, endFrameMagic, byte(step))
	return binary.LittleEndian.AppendUint32(dst, uint32(streamed))
}

// decodeEndHeader splits an end-of-step frame into its step byte, the
// announced count of streamed tile frames, and the comm payload (aliasing
// frame).
func decodeEndHeader(frame []byte) (step byte, streamed uint32, payload []byte, err error) {
	if len(frame) < endHeaderSize || frame[0] != endFrameMagic {
		return 0, 0, nil, fmt.Errorf("malformed end-of-step frame (%d bytes)", len(frame))
	}
	return frame[1], binary.LittleEndian.Uint32(frame[2:]), frame[endHeaderSize:], nil
}

// broadcastEnd sends this step's end-of-step frame to every peer: the
// batches processTile deferred, concatenated in tile order into one batch
// over [first deferred lo, last deferred hi), behind the count of tile
// frames this server streamed earlier in the step. Every deferred tile was
// sparse by the hybrid rule and the merged range only adds unchanged
// targets, so the merged batch is sparse too; it is encoded as such once,
// whatever its size. Per-link FIFO delivers it after every streamed frame.
func (s *server) broadcastEnd(step int, opts comm.Options) (comm.Encoding, error) {
	b := &s.endBatch
	*b = comm.Batch{Updates: b.Updates[:0]}
	streamed, merged := 0, false
	for k := range s.outs {
		o := &s.outs[k]
		if !o.deferred {
			streamed++
			continue
		}
		meta := s.metas[k]
		if !merged {
			b.TileID, b.Lo, merged = uint32(meta.id), meta.lo, true
		}
		b.Hi = meta.hi
		b.Updates = append(b.Updates, o.updates...)
	}
	opts.Choice = comm.ForceSparse
	wb := s.sender.Acquire()
	msg, enc, err := comm.AppendEncode(s.endHeader(wb.Data[:0], step, streamed), b, opts)
	if err != nil {
		s.sender.Release(wb)
		return enc, err
	}
	wb.Data = msg
	return enc, s.sender.Broadcast(wb)
}

// initialQueueCap is each destination's send-queue capacity when a
// server first builds its Sender. Serial servers adapt it from there
// (adaptSendQueue); multi-tenant runners keep it. A variable only so tests
// can start from a tiny queue.
var initialQueueCap = 32

// adaptSendQueue resizes the pipelined sender's per-destination queues from
// the backpressure observed since the last adjustment. It runs between the
// step's flush and the next step's first enqueue, when the queues are
// guaranteed empty, so swapping the Sender is safe.
func (s *server) adaptSendQueue() {
	m := s.node.Metrics()
	stallsDelta := m.SendStalls - s.lastStalls
	s.lastStalls = m.SendStalls
	if stallsDelta == 0 {
		s.quietSteps++
	} else {
		s.quietSteps = 0
	}
	next := costmodel.AdaptQueueCap(s.queueCap, stallsDelta, m.QueueHighWater, s.quietSteps)
	if next == s.queueCap {
		return
	}
	// The old sender was flushed at the barrier; Close only reaps its drain
	// goroutines. An asynchronous error would already have aborted the
	// cluster, so it surfaces through the normal paths — not here.
	s.sender.Close()
	s.queueCap = next
	s.quietSteps = 0
	s.sender = s.node.NewSender(next)
}

// loadTile materializes one tile for processTile: cache hit, staged
// prefetch, or synchronous demand read — in that order of preference. The
// prefetcher is consulted only after a cache miss, and its staged tile is
// offered for admission with exactly the same policy decision a demand miss
// gets (cache.AdmitLoaded), so prefetching never changes what the cache
// retains. A failed prefetch falls through to the synchronous path — the
// demand read is the retry. Under the streaming residency tier the cache
// holds no tiles (GetInto still runs for uniform hit/miss accounting) and
// un-prefetched tiles are read and decoded straight into worker scratch.
func (s *server) loadTile(meta *tileMeta, scr *workerScratch) (*csr.Tile, error) {
	if t, ok := s.cache.GetInto(meta.id, &scr.tile); ok {
		return t, nil
	}
	if s.multi {
		// Cross-job sharing: a concurrent job may have offered this tile
		// after paying its disk read. A take is the read this job skips.
		if t, ok := s.shared.share.Take(meta.id, s.slotBit); ok {
			atomic.AddInt64(&s.shareHits, 1)
			if s.residency == ResidencyCached {
				if err := s.cache.AdmitLoaded(meta.id, t); err != nil {
					return nil, err
				}
			}
			return t, nil
		}
	}
	if s.pf != nil {
		if t := s.pf.take(meta.id, &scr.tile); t != nil {
			if s.residency == ResidencyCached {
				if err := s.cache.AdmitLoaded(meta.id, t); err != nil {
					return nil, err
				}
			}
			return t, nil
		}
	}
	if s.residency == ResidencyStreaming {
		data, err := s.store.ReadInto(meta.blob, scr.disk[:0])
		if err != nil {
			return nil, err
		}
		scr.disk = data[:0] // keep (possibly grown) buffer for the next load
		if err := csr.DecodeInto(&scr.tile, data); err != nil {
			return nil, err
		}
		if s.multi {
			s.offerShare(meta.id, &scr.tile)
		}
		return &scr.tile, nil
	}
	t, err := s.cache.LoadInto(meta.id, &scr.tile, func(dst *csr.Tile) (*csr.Tile, error) {
		data, err := s.store.ReadInto(meta.blob, scr.disk[:0])
		if err != nil {
			return nil, err
		}
		scr.disk = data[:0] // keep (possibly grown) buffer for the next load
		if dst == nil {
			dst = new(csr.Tile)
		}
		if err := csr.DecodeInto(dst, data); err != nil {
			return nil, err
		}
		return dst, nil
	})
	if err == nil && s.multi && !s.cache.Contains(meta.id) {
		// The cache declined admission (policy or capacity): the read's
		// result would otherwise be lost to the other jobs, so offer it.
		s.offerShare(meta.id, t)
	}
	return t, err
}

// tileOut is the outcome of processing one tile in one superstep.
type tileOut struct {
	updates  []comm.Update
	enc      comm.Encoding // zero when deferred
	gathered int64         // in-edges folded through Gather
	skipped  bool
	// deferred marks a sparse batch left for the end-of-step frame
	// instead of streamed in a frame of its own.
	deferred bool
	err      error
}

// receiveStep is the counted receive of one superstep: it consumes frames
// until every live peer is finished — its end-of-step frame has arrived and
// so has every tile frame that end frame announced — decoding each frame
// the moment it lands and staging its updates per sender rank. It runs on
// its own goroutine concurrently with tile compute. Only one receive runs
// at a time, so recvBatch and staged are single-writer.
//
// Per-link FIFO delivers a peer's end frame after its streamed frames; the
// announced count still matters, because it turns a streamed frame the
// wire lost into a stall instead of a silently partial step. Tile frames
// count per distinct tile — a seen-tile bitset drops duplicated frames
// (scripted WireDuplicate, future retransmits) — and a second end frame
// from one peer is a duplicate too. Stray recovery markers from an earlier
// failure and other steps' frames are discarded by magic and step byte.
// When the stream stalls past the cluster's FailureTimeout, every live peer
// whose end frame is missing or whose count is short is declared dead and
// the step fails with cluster.ErrMembershipChanged — the signal the
// superstep loop turns into recovery. A peer whose frame was dropped by the
// wire is indistinguishable from a dead one; the false accusation fences
// it, which is the designed fail-stop semantic.
//
// The receive is context-aware: a cancelled job stops staging immediately.
// The remaining frames of the step are still drained — cancellation is
// only acted on at the step edge, so every peer completes its sends and the
// counted protocol must consume them to leave the transport clean for the
// session's next job — but their contents are discarded, since the vote
// barrier is now guaranteed to abort the job.
func (s *server) receiveStep(ctx context.Context, step int) error {
	me := s.node.ID()
	need := 0 // live peers not finished yet
	for p := range s.recvdFrom {
		s.recvdFrom[p], s.announced[p] = 0, -1
		if p != me && s.node.Alive(p) {
			need++
		}
	}
	if need == 0 {
		return nil
	}
	clear(s.seenTiles)
	discard := false
	handle := func(from int, msg []byte) (bool, error) {
		switch {
		case len(msg) > 0 && msg[0] == endFrameMagic:
			st, streamed, payload, err := decodeEndHeader(msg)
			if err != nil {
				return false, fmt.Errorf("core: server %d: frame from server %d: %w", me, from, err)
			}
			if st != byte(step) || s.announced[from] >= 0 {
				return false, nil // another step's end frame, or a duplicate
			}
			if uint64(streamed) > uint64(s.total) {
				return false, fmt.Errorf("core: server %d: end-of-step frame from server %d announces %d tile frames, past the graph's %d tiles",
					me, from, streamed, s.total)
			}
			if err := s.decodeBatch(from, payload); err != nil {
				return false, err
			}
			s.announced[from] = int(streamed)
		case len(msg) >= 2 && msg[0] == stepFrameMagic && msg[1] == byte(step):
			if err := s.decodeBatch(from, msg[2:]); err != nil {
				return false, err
			}
			t := int(s.recvBatch.TileID)
			if s.seenTiles[t>>6]&(1<<uint(t&63)) != 0 {
				return false, nil // duplicated frame
			}
			s.seenTiles[t>>6] |= 1 << uint(t&63)
			s.recvdFrom[from]++
		case len(msg) > 0 && (msg[0] == stepFrameMagic || msg[0] == markerMagic):
			// Another step's frame (a leaked duplicate, or a dead server's
			// in-flight traffic outliving recovery) or a stray recovery
			// marker: stale, discard.
			return false, nil
		default:
			return false, fmt.Errorf("core: server %d received non-batch frame (%d bytes) mid-step", me, len(msg))
		}
		if !discard {
			s.staged[from] = append(s.staged[from], s.recvBatch.Updates...)
		}
		got, want := s.recvdFrom[from], s.announced[from]
		if want < 0 || got < want {
			return false, nil
		}
		if got > want {
			return false, fmt.Errorf("core: server %d received %d tile frames from server %d, whose end-of-step frame announced %d",
				me, got, from, want)
		}
		need--
		return need == 0, nil
	}
	err := s.recvWhile(ctx, handle)
	if err != nil && ctx != nil && ctx.Err() != nil && errors.Is(err, ctx.Err()) {
		discard = true
		err = s.recvWhile(nil, handle)
	}
	if err != nil && errors.Is(err, cluster.ErrRecvStall) {
		if s.shared.dead.Load() {
			// A killed runner's orphaned receive has no standing to accuse:
			// its peers stopped sending because THIS server died, and a
			// false accusation here would fence a healthy survivor.
			return cluster.ErrMembershipChanged
		}
		for p, got := range s.recvdFrom {
			if p != me && s.node.Alive(p) && got != s.announced[p] {
				s.node.DeclareDead(p)
			}
		}
		return cluster.ErrMembershipChanged
	}
	return err
}

// decodeBatch decodes one received update batch into recvBatch and checks it
// against this session's graph — the batch handler both the step receive and
// the On-Demand result receive share. A frame is untrusted input: DecodeInto
// only checks it against itself, and a tile or vertex range past the graph
// would index the tile tables, the replicas or the result vector out of
// bounds.
func (s *server) decodeBatch(from int, msg []byte) error {
	me := s.node.ID()
	b := &s.recvBatch
	if _, err := comm.DecodeInto(b, msg); err != nil {
		return fmt.Errorf("core: server %d decoding update batch from server %d: %w", me, from, err)
	}
	if int(b.TileID) >= s.total || b.Hi > s.graph.NumVertices {
		return fmt.Errorf("core: server %d received a batch from server %d for tile %d over [%d,%d), outside the graph's %d tiles and %d vertices",
			me, from, b.TileID, b.Lo, b.Hi, s.total, s.graph.NumVertices)
	}
	return nil
}

// processTile runs gather+apply over one tile and ships the resulting
// update batch (Algorithm 5 lines 8–16). A batch encoded dense streams to
// the peers at once, overlapping the rest of the step's compute; a sparse
// one (under the hybrid rule, every skipped or empty tile's) stays in
// updBufs for the end-of-step frame (broadcastEnd), so a sparse step costs
// one frame per peer instead of one per tile. All per-tile working memory —
// the update list, the decoded tile, the disk read buffer and the wire
// buffer — is reused across supersteps, so in steady state this path
// allocates nothing.
func (s *server) processTile(k, step int, encOpts comm.Options, scr *workerScratch) (out tileOut) {
	meta := s.metas[k]
	skip := s.frontier.idle(meta)
	updates := s.updBufs[k][:0]
	if !skip {
		t, err := s.loadTile(meta, scr)
		if err != nil {
			out.err = fmt.Errorf("core: server %d loading tile %d: %w", s.node.ID(), meta.id, err)
			return out
		}
		if s.frontier.sparse() {
			updates, out.gathered = s.gatherActive(t, updates)
		} else {
			for v := meta.lo; v < meta.hi; v++ {
				updates = s.updateRow(t, v, updates)
			}
			out.gathered = int64(len(t.Col))
		}
	}
	s.updBufs[k] = updates
	out.updates = updates
	out.skipped = skip

	scr.batch = comm.Batch{TileID: uint32(meta.id), Lo: meta.lo, Hi: meta.hi, Updates: updates}
	if s.sender != nil {
		mode, err := encOpts.Mode(&scr.batch)
		if err != nil {
			out.err = err
			return out
		}
		if mode == comm.SparseMode {
			out.deferred = true
			return out
		}
		// Pipelined: encode into a pooled wire buffer and enqueue it. The
		// worker moves on to its next tile immediately; ownership of the
		// buffer transfers to the sender, which recycles it after the last
		// destination's write.
		wb := s.sender.Acquire()
		msg, enc, err := comm.AppendEncode(s.stepHeader(wb.Data[:0], step), &scr.batch, encOpts)
		if err != nil {
			s.sender.Release(wb)
			out.err = err
			return out
		}
		wb.Data = msg
		out.enc = enc
		if err := s.sender.Broadcast(wb); err != nil {
			out.err = err
		}
		return out
	}
	// A single server has no peers: the batch is encoded only for the step's
	// message counters, and sent nowhere.
	scr.wire, out.enc, out.err = comm.AppendEncode(scr.wire[:0], &scr.batch, encOpts)
	return out
}

// gatherActive is the sparse-superstep gather: instead of sweeping every row
// of the tile it scans the source column flat against the frontier bitmap,
// and for each hit runs the ordinary full gather + apply of the row the hit
// belongs to — all of the row's in-edges, in tile order, exactly what the
// dense sweep would compute for it — then jumps to the next row. Rows without
// an active in-neighbour are never touched: by the Program contract they
// would re-apply to their current value. Rows are visited in ascending order,
// so the update list comes out in the same order as the dense sweep's. It
// returns the extended update list and the number of edges gathered.
func (s *server) gatherActive(t *csr.Tile, updates []comm.Update) ([]comm.Update, int64) {
	bits := s.frontier.bits
	row, col := t.Row, t.Col
	var gathered int64
	r := 0 // row cursor: only ever moves forward
	for i := 0; i < len(col); {
		if src := col[i]; bits[src>>6]&(1<<(src&63)) == 0 {
			i++
			continue
		}
		for row[r+1] <= uint32(i) {
			r++
		}
		updates = s.updateRow(t, t.TargetLo+uint32(r), updates)
		lo, hi := row[r], row[r+1]
		gathered += int64(hi - lo)
		i = int(hi)
	}
	return updates, gathered
}

// updateRow is the row body both sweeps share: one Gather over all of target
// v's in-edges in t, one Apply, and an update appended to updates when the
// value changed.
func (s *server) updateRow(t *csr.Tile, v uint32, updates []comm.Update) []comm.Update {
	srcs, w := t.InEdges(v)
	acc := s.prog.Gather(srcs, w, s.state, s.graph)
	old := s.state.Get(v)
	if nv := s.prog.Apply(v, acc, old, s.graph); nv != old {
		updates = append(updates, comm.Update{ID: v, Value: nv})
	}
	return updates
}

// collectResult assembles the final value vector on the coordinator. Under
// All-in-All every live server already has every replica, so the lowest
// live rank copies its own — the role fails over when rank 0 died mid-job.
// Under On-Demand each server owns the target ranges of its tiles and ships
// them to rank 0 (On-Demand jobs cannot lose servers: recovery requires
// All-in-All).
func (s *server) collectResult() error {
	n := s.node
	if s.cfg.Replication == AllInAll {
		for {
			if n.ID() == s.coordRank() {
				copy(s.result.Values, s.state.values)
			}
			err := s.barrierErr()
			if err == nil {
				return nil
			}
			if !errors.Is(err, cluster.ErrMembershipChanged) {
				return err
			}
			// A lingering declaration landed between the last superstep and
			// here (a hang victim detected late, say). No step state is at
			// risk any more — re-acknowledge, re-elect, re-copy.
			epoch, alive := n.AckMembership()
			s.ackedEpoch = epoch
			if !alive[n.ID()] {
				return s.die(true)
			}
		}
	}
	// On-Demand: exchange target-range values. The sends ride the pipelined
	// Sender (every rank but 0 has one), so encoding the next range overlaps
	// the previous range's wire time instead of paying blocking sends at the
	// run tail; rank 0 streams the batches straight into the result vector
	// (target ranges are disjoint, so arrival order is irrelevant). The
	// frames use the job's message codec.
	collectOpts := comm.Options{Choice: comm.ForceDense, Codec: s.msgCodec}
	if n.ID() != 0 {
		for _, meta := range s.metas {
			ups := make([]comm.Update, 0, meta.hi-meta.lo)
			for v := meta.lo; v < meta.hi; v++ {
				ups = append(ups, comm.Update{ID: v, Value: s.state.Get(v)})
			}
			batch := comm.Batch{TileID: uint32(meta.id), Lo: meta.lo, Hi: meta.hi, Updates: ups}
			wb := s.sender.Acquire()
			head := wb.Data[:0]
			if s.multi {
				head = comm.AppendJobHeader(head, s.jobID)
			}
			msg, _, err := comm.AppendEncode(head, &batch, collectOpts)
			if err != nil {
				s.sender.Release(wb)
				return err
			}
			wb.Data = msg
			if err := s.sender.Send(0, wb); err != nil {
				return err
			}
		}
		if err := s.sender.Flush(); err != nil {
			return err
		}
	} else {
		for _, meta := range s.metas {
			for v := meta.lo; v < meta.hi; v++ {
				s.result.Values[v] = s.state.Get(v)
			}
		}
		err := s.recvCount(s.total-len(s.metas), func(from int, m []byte) error {
			if err := s.decodeBatch(from, m); err != nil {
				return err
			}
			for _, u := range s.recvBatch.Updates {
				s.result.Values[u.ID] = u.Value
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return s.syncBarrier()
}

// barrierVote is the runner's step-consensus barrier: the node-wide vote
// barrier in a serial session, the job-tagged barrier (checked against this
// runner's privately acknowledged membership epoch) when multi-tenant.
func (s *server) barrierVote(flag bool) (bool, error) {
	if s.multi {
		return s.node.JobBarrierVoteEpoch(s.jobID, flag, s.ackedEpoch)
	}
	return s.node.BarrierVoteErr(flag)
}

// barrierErr is the voteless form: nil on a clean pass, the membership error
// when a runner must recover, cluster.ErrBarrierBroken after an abort.
func (s *server) barrierErr() error {
	if s.multi {
		return s.node.JobBarrierErr(s.jobID, s.ackedEpoch)
	}
	return s.node.BarrierErr()
}

// syncBarrier is the plain end-of-phase barrier (collectResult's tail):
// best-effort in both modes — the result is already assembled, a failure
// here cannot corrupt it.
func (s *server) syncBarrier() error {
	if !s.multi {
		s.node.Barrier()
		return nil
	}
	_, err := s.node.JobBarrierVoteEpoch(s.jobID, false, s.ackedEpoch)
	if err != nil && !errors.Is(err, cluster.ErrMembershipChanged) {
		return err
	}
	return nil
}

// recvWhile is receiveStep's stream primitive: the node inbox in a serial
// session, this runner's routed mailbox when multi-tenant.
func (s *server) recvWhile(ctx context.Context, fn func(from int, msg []byte) (bool, error)) error {
	if s.multi {
		return s.recvMail(ctx, fn)
	}
	return s.node.RecvStreamWhile(ctx, fn)
}

// recvCount is collectResult's counted receive: exactly count frames, each
// handed to fn.
func (s *server) recvCount(count int, fn func(from int, msg []byte) error) error {
	if !s.multi {
		return s.node.RecvStream(count, fn)
	}
	if count <= 0 {
		return nil
	}
	remaining := count
	return s.recvMail(nil, func(from int, payload []byte) (bool, error) {
		if err := fn(from, payload); err != nil {
			return false, err
		}
		remaining--
		return remaining == 0, nil
	})
}

// offerShare publishes a tile this runner just paid a disk read for to the
// node's share window, for the other in-flight jobs to take. The tile is
// cloned because the argument is scratch- or cache-backed; the clone is
// skipped when no other job is running or the window would drop the offer.
func (s *server) offerShare(id int, t *csr.Tile) {
	sh := s.shared
	mask := sh.sched.othersMask(s.slotBit)
	if mask == 0 || !sh.share.Accepting(id) {
		return
	}
	sh.share.Offer(id, t.Clone(), mask)
}

// fillServerStats computes the analytic memory footprint (§IV-A accounting)
// and snapshots the disk, cache and network counters. On a session's
// second and later jobs the counters are cumulative since Open — the warm
// store and cache are shared state, and their deltas between jobs are what
// pin cross-job reuse (a warm Submit adds cache hits but no tile writes).
func (s *server) fillServerStats() {
	st := &s.result.Servers[s.node.ID()]
	st.Server = s.node.ID()
	st.VertexSlots = s.state.numSlots()
	mem := s.bloomBytes
	mem += s.state.memoryBytes()
	// The out-degree array each server keeps for programs like PageRank.
	mem += int64(len(s.graph.OutDeg)) * 4
	// Cache contents plus one in-flight decoded tile per worker.
	cs := s.cache.Stats()
	mem += cs.BytesCached
	var maxTile int64
	for _, m := range s.metas {
		if m.encBytes > maxTile {
			maxTile = m.encBytes
		}
	}
	mem += maxTile * int64(s.cfg.WorkersPerServer)
	st.MemoryBytes = mem
	st.Disk = s.store.Counters()
	st.Cache = cs
	st.CacheMode = s.cache.Mode()
	st.CachePolicy = s.cache.Policy()
	st.Residency = s.residency
	if s.pf != nil {
		st.PrefetchIssued, st.PrefetchHits, st.PrefetchWasted = s.pf.statsSnapshot()
	}
	st.SendQueueCap = s.queueCap
	m := s.node.Metrics()
	st.BytesSent = m.BytesSent
	st.BytesRecv = m.BytesRecv
	st.SendStalls = m.SendStalls
	st.SendQueueHighWater = m.QueueHighWater
	st.Checkpoints = s.ckptCount
	st.CheckpointBytes = s.ckptBytes
	st.TilesAdopted = s.tilesAdopted
	st.Recoveries = s.recoveries
	st.RecoveryTime = s.recoveryTime
	st.Joins = int(s.shared.joins.Load())
	st.MembershipEpoch = s.node.MembershipEpoch()
	st.SharedTileLoads = atomic.LoadInt64(&s.shareHits)
}

// jobRunner clones this server for one admitted job of a multi-tenant
// session. The clone shares everything session-lifetime — store, cache,
// graph, node, metas data, the nodeShared plumbing — and privatizes
// everything a concurrent BSP loop writes: vertex state (allocated fresh by
// initJobState), scratch, per-tile buffers, the tile list and receive
// tallies. Built field-by-field, so every field not listed starts at its
// per-job zero value.
func (s *server) jobRunner(jb *job) *server {
	r := &server{
		cfg:        s.cfg,
		node:       s.node,
		graph:      s.graph,
		tiles:      s.tiles,
		total:      s.total,
		work:       s.work,
		store:      s.store,
		cache:      s.cache,
		members:    s.members,
		bloomBytes: s.bloomBytes,
		residency:  s.residency,
		workRoot:   s.workRoot,
		baseOwner:  s.baseOwner,
		faults:     s.faults,
		shared:     s.shared,
		multi:      true,
		jobID:      jb.id,
		slotBit:    1 << uint(jb.slot),
		jobWeight:  jb.weight,
	}
	r.metas = append([]*tileMeta(nil), s.metas...)
	r.scratch = make([]*workerScratch, r.cfg.WorkersPerServer)
	for w := range r.scratch {
		r.scratch[w] = new(workerScratch)
	}
	r.outs = make([]tileOut, len(r.metas))
	r.updBufs = make([][]comm.Update, len(r.metas))
	r.staged = make([][]comm.Update, r.node.NumNodes())
	r.recvdFrom = make([]int, r.node.NumNodes())
	r.announced = make([]int, r.node.NumNodes())
	r.seenTiles = make([]uint64, (r.total+63)/64)
	// Static send-queue sizing only: the adaptive controller reads node-wide
	// stall metrics, which concurrent runners would pollute for each other.
	r.queueCap = initialQueueCap
	r.rtr = s.shared.router.Load()
	r.mailbox = r.rtr.register(jb.id)
	return r
}

// mergeSteps folds the per-server step stats into cluster-wide rows: sums
// for counters, max for durations.
func mergeSteps(res *Result, byServer [][]StepStats) {
	numSteps := 0
	for _, ss := range byServer {
		if n := len(ss); n > 0 && ss[n-1].Superstep+1 > numSteps {
			numSteps = ss[n-1].Superstep + 1
		}
	}
	res.Steps = make([]StepStats, numSteps)
	for i := range res.Steps {
		res.Steps[i].Superstep = i
	}
	for _, ss := range byServer {
		for _, st := range ss {
			dst := &res.Steps[st.Superstep]
			if st.Updated > dst.Updated {
				// Identical on every live server; max (not "server 0's")
				// because a dead server reports no steps at all.
				dst.Updated = st.Updated
			}
			dst.WireBytes += st.WireBytes
			dst.RawBytes += st.RawBytes
			dst.DenseMsgs += st.DenseMsgs
			dst.SparseMsgs += st.SparseMsgs
			dst.SkippedTiles += st.SkippedTiles
			dst.LoadedTiles += st.LoadedTiles
			dst.GatheredEdges += st.GatheredEdges
			if st.Duration > dst.Duration {
				dst.Duration = st.Duration
			}
			if st.Checkpoint > dst.Checkpoint {
				dst.Checkpoint = st.Checkpoint
			}
		}
	}
}
