package core

// White-box regression tests for the allocation-free superstep hot path:
// once a server is warm (tiles cached or declined, scratch buffers grown),
// processTile must allocate O(changed vertices) per superstep — in practice
// a small constant — not O(edges).

import (
	"context"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/graph"
	"repro/internal/racedetect"
	"repro/internal/tile"
)

// smoothProg is a minimal Program whose values keep changing every
// superstep, so updates are always produced and broadcast.
type smoothProg struct{}

func (smoothProg) Name() string                         { return "smooth" }
func (smoothProg) InitValue(v uint32, g *Graph) float64 { return float64(v%17) + 1 }
func (smoothProg) Gather(srcs []uint32, w []float32, vals *Replicas, g *Graph) float64 {
	acc := 0.0
	for i, src := range srcs {
		acc += vals.Get(src) * edgeValue(w, i)
	}
	return acc
}
func (smoothProg) Apply(v uint32, acc, old float64, g *Graph) float64 {
	return old*0.5 + acc*0.25 + 0.125
}

// newWarmServer builds a single-node server over a small RMAT partition,
// runs setup and two full warm-up sweeps of smoothProg, and returns it ready
// for measurement.
func newWarmServer(t *testing.T, mutate func(*Config), pipelined bool) (*server, comm.Options, func()) {
	t.Helper()
	el := graph.GenerateRMAT(graph.DefaultRMAT(), 512, 4096, 9)
	p, err := tile.Split(el, tile.Options{TileSize: el.NumEdges()/8 + 1})
	if err != nil {
		t.Fatal(err)
	}
	sv, encOpts, cleanup := newServerOn(t, p, smoothProg{}, mutate, pipelined)

	// Two warm-up sweeps: the first populates (or fills) the cache and sizes
	// every scratch buffer; the second settles pool state.
	scr := sv.scratch[0]
	for step := 0; step < 2; step++ {
		for k := range sv.metas {
			if out := sv.processTile(k, step, encOpts, scr); out.err != nil {
				cleanup()
				t.Fatal(out.err)
			}
			for _, u := range sv.updBufs[k] {
				sv.state.set(u.ID, u.Value)
			}
		}
	}
	return sv, encOpts, cleanup
}

// newServerOn builds a single-node, single-worker server over p with prog
// installed as the running job's program: setup done, vertex state
// initialised, nothing swept yet. The white-box tests drive it through
// processTile or runStep directly.
func newServerOn(t testing.TB, p *tile.Partition, prog Program, mutate func(*Config), pipelined bool) (*server, comm.Options, func()) {
	t.Helper()
	cfg := DefaultConfig(1)
	cfg.WorkersPerServer = 1
	cfg.WorkDir = t.TempDir()
	cfg.CacheAuto = false
	if mutate != nil {
		mutate(&cfg)
	}
	cfg = cfg.normalized()

	g, numTiles, fetch, err := prepareInput(Input{Partition: p})
	if err != nil {
		t.Fatal(err)
	}
	assign, err := tile.Assign(numTiles, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{NumNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{
		Values:  make([]float64, g.NumVertices),
		Servers: make([]ServerStats, 1),
	}
	sv := &server{
		cfg:      cfg,
		node:     cl.Node(0),
		graph:    g,
		fetch:    fetch,
		tiles:    assign.TilesOf[0],
		total:    numTiles,
		prog:     prog,
		ctx:      context.Background(),
		maxSteps: cfg.MaxSupersteps,
		work:     cfg.WorkDir,
		result:   res,
		shared:   new(nodeShared),
	}
	if err := sv.setup(); err != nil {
		cl.Close()
		t.Fatal(err)
	}
	sv.initJobState() // per-job vertex values, split out of setup by sessions
	if pipelined {
		// A single-node sender has no peers, so broadcasts release their
		// pooled buffer immediately — this pins the Acquire/encode/enqueue
		// path itself to zero allocations without the transport's
		// per-message payload copy muddying the count.
		sv.sender = cl.Node(0).NewSender(initialQueueCap)
	}
	// Encode with snappy, the path through the compression scratch
	// buffer, unless mutate picks a codec.
	codec := compress.Snappy
	if cfg.MsgCodec != nil {
		codec = *cfg.MsgCodec
	}
	encOpts := comm.Options{Choice: cfg.Comm, Codec: codec}
	return sv, encOpts, func() { cl.Close() }
}

// measureSweepAllocs returns the average allocations of one full sweep over
// the server's tiles (one superstep's worth of processTile calls).
func measureSweepAllocs(t *testing.T, sv *server, encOpts comm.Options) float64 {
	t.Helper()
	scr := sv.scratch[0]
	step := 2
	return testing.AllocsPerRun(10, func() {
		for k := range sv.metas {
			if out := sv.processTile(k, step, encOpts, scr); out.err != nil {
				t.Fatal(out.err)
			}
			for _, u := range sv.updBufs[k] {
				sv.state.set(u.ID, u.Value)
			}
		}
		step++
	})
}

// TestProcessTileSteadyStateAllocs covers the cache configurations of the
// hot path: unlimited raw cache (hits return cached tiles), unlimited snappy
// cache (hits decode into worker scratch), tiny raw cache (declined
// admissions decode into scratch), and no cache at all (every load reads
// disk into scratch). In every configuration a warm sweep over all tiles
// must stay under a small constant allocation budget — independent of edge
// count.
func TestProcessTileSteadyStateAllocs(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	cases := []struct {
		name      string
		mutate    func(*Config)
		pipelined bool
		budget    float64
	}{
		{"raw-cache-unlimited", func(c *Config) { c.CacheMode = compress.None }, false, 0},
		{"snappy-cache-unlimited", func(c *Config) { c.CacheMode = compress.Snappy }, false, 0},
		// Residency is forced: a 128-byte budget would auto-select the
		// streaming tier, and this case pins the declined-admission path.
		{"raw-cache-tiny", func(c *Config) {
			c.CacheMode = compress.None
			c.CacheCapacity = 128
			c.Residency = ResidencyCached
		}, false, 0},
		{"cache-disabled", func(c *Config) { c.CacheCapacity = -1 }, false, 0},
		{"pipelined-sender", func(c *Config) { c.CacheMode = compress.None }, true, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sv, encOpts, cleanup := newWarmServer(t, tc.mutate, tc.pipelined)
			defer cleanup()
			allocs := measureSweepAllocs(t, sv, encOpts)
			if allocs > tc.budget {
				t.Errorf("steady-state sweep allocates %.1f times over %d tiles, want ≤ %.0f",
					allocs, len(sv.metas), tc.budget)
			}
		})
	}
}

// TestPrefetchSteadyStateAllocs pins the sweep-ahead pipeline to the same
// zero-allocation budget as the synchronous path: once slots, batch ops, and
// frame buffers are warm, a full prefetch-fed sweep (restart + reach +
// processTile per tile, exactly the runStep choreography) must not allocate —
// including on the async reader's worker goroutines, which AllocsPerRun
// counts too.
func TestPrefetchSteadyStateAllocs(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	sv, encOpts, cleanup := newWarmServer(t, func(c *Config) {
		// No cache: the session streams, so every tile load is a prefetch
		// hit in the steady state.
		c.CacheCapacity = -1
	}, false)
	defer cleanup()
	if sv.pf == nil {
		t.Fatal("streaming session did not start a prefetcher")
	}
	scr := sv.scratch[0]
	step := 2
	sweep := func() {
		sv.pf.restart(sv.metas, &sv.frontier)
		for k := range sv.metas {
			sv.pf.reach(k + sv.pfDepth)
			if out := sv.processTile(k, step, encOpts, scr); out.err != nil {
				t.Fatal(out.err)
			}
			for _, u := range sv.updBufs[k] {
				sv.state.set(u.ID, u.Value)
			}
		}
		step++
	}
	// Warm the prefetch pipeline itself: slot and op freelists, the batch
	// frame buffers, and the decoded tiles' arrays.
	for i := 0; i < 3; i++ {
		sweep()
	}
	before, _, _ := sv.pf.statsSnapshot()
	allocs := testing.AllocsPerRun(10, sweep)
	if allocs > 0 {
		t.Errorf("steady-state prefetch sweep allocates %.1f times over %d tiles, want 0",
			allocs, len(sv.metas))
	}
	issued, hits, _ := sv.pf.statsSnapshot()
	if issued <= before || hits == 0 {
		t.Fatalf("measurement sweeps did not run through the prefetcher: issued %d→%d, hits %d",
			before, issued, hits)
	}
}

// TestAtomicMax exercises the CAS loop under contention.
func TestAtomicMax(t *testing.T) {
	var v int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				atomicMax(&v, int64(g*1000+i))
			}
		}(g)
	}
	wg.Wait()
	if v != 7999 {
		t.Fatalf("atomicMax converged to %d, want 7999", v)
	}
	atomicMax(&v, 5)
	if v != 7999 {
		t.Fatalf("atomicMax lowered the value to %d", v)
	}
}
