package core_test

// Multi-tenant session tests: the determinism/race/chaos wall for
// concurrent Submits (Config.MaxConcurrentJobs > 1). The contract under
// test is brutal on purpose: interleaving jobs inside one cluster must be
// invisible in the results — every concurrent job bit-identical to its
// serial run, across transports, cache policies and residency
// tiers — while admission control, cancellation, crash recovery and the
// shared-sweep tile window all keep working with more than one job in
// flight.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/compress"
	. "repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tile"
)

// serialValues computes the serial-ground-truth vertex vector for prog: a
// standalone Run over p with the multi-tenant knobs stripped.
func serialValues(t *testing.T, p *tile.Partition, cfg Config, prog Program) []float64 {
	t.Helper()
	ref := cfg
	ref.WorkDir = t.TempDir()
	ref.MaxConcurrentJobs = 0
	ref.MaxQueuedJobs = 0
	ref.Faults = nil
	res, err := New(ref).Run(Input{Partition: p}, prog)
	if err != nil {
		t.Fatalf("%s serial baseline: %v", prog.Name(), err)
	}
	return res.Values
}

// submitConcurrently fires one goroutine per (prog, opts) pair against se
// and returns the per-job results and errors once every Submit came back.
func submitConcurrently(t *testing.T, se *Session, progs []Program, opts []JobOptions) ([]*Result, []error) {
	t.Helper()
	results := make([]*Result, len(progs))
	errs := make([]error, len(progs))
	var wg sync.WaitGroup
	for i := range progs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = se.Submit(context.Background(), progs[i], opts[i])
		}(i)
	}
	wg.Wait()
	return results, errs
}

// TestMultiJobMatchesSerial is the bit-identity matrix: PageRank, SSSP and
// WCC submitted concurrently (three jobs interleaving inside one cluster)
// must produce exactly the values of three standalone serial Runs, on both
// transports.
func TestMultiJobMatchesSerial(t *testing.T) {
	_, p := sessionGraph(t)
	progs := []Program{apps.PageRank{}, apps.SSSP{Source: 1}, apps.WCC{}}
	cfg := DefaultConfig(3)
	cfg.MaxSupersteps = 30
	base := make([][]float64, len(progs))
	for i, prog := range progs {
		base[i] = serialValues(t, p, cfg, prog)
	}
	for _, tr := range []cluster.TransportKind{cluster.Inproc, cluster.TCP} {
		t.Run(tr.String()+"/pipelined", func(t *testing.T) {
			mcfg := cfg
			mcfg.Transport = tr
			mcfg.WorkDir = t.TempDir()
			mcfg.MaxConcurrentJobs = 3
			se, err := Open(Input{Partition: p}, mcfg)
			if err != nil {
				t.Fatal(err)
			}
			defer se.Close()
			results, errs := submitConcurrently(t, se, progs, make([]JobOptions, len(progs)))
			for i, err := range errs {
				if err != nil {
					t.Fatalf("%s: %v", progs[i].Name(), err)
				}
			}
			for i, res := range results {
				wantExact(t, res.Values, base[i], progs[i].Name())
			}
		})
	}
}

// TestMultiJobCachePolicyMatrix re-runs the bit-identity check under every
// cache regime the engine offers: a small Clock cache, a Clock cache that
// must evict (two traversals whose wavefronts walk a chain's tiles past a
// two-tile budget, so the tiles behind them age out), a disabled cache, and
// the forced streaming tier (every tile re-read every superstep, the
// configuration where the share window actually carries traffic).
func TestMultiJobCachePolicyMatrix(t *testing.T) {
	_, p := sessionGraph(t)
	chain, err := tile.Split(graph.GenerateChain(64), tile.Options{TileSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	progs := []Program{apps.PageRank{}, apps.WCC{}}
	walks := []Program{apps.SSSP{Source: 0}, apps.BFS{Source: 0}}
	clock := func(capacity int64) func(*Config) {
		return func(c *Config) {
			c.CachePolicyAuto = false
			c.CachePolicy = cache.Clock
			c.CacheCapacity = capacity
		}
	}
	variants := []struct {
		name   string
		part   *tile.Partition
		progs  []Program
		mutate func(*Config)
		evicts bool // the Clock cache must evict tiles
	}{
		{"clock-small", p, progs, clock(64 << 10), false},
		{"clock-evicting", chain, walks, func(c *Config) {
			clock(2 * chain.Tiles[1].SizeBytes())(c)
			c.CacheAuto = false // raw tiles, so two fit the budget exactly
			c.CacheMode = compress.None
			c.Residency = ResidencyCached
			c.MaxSupersteps = 80 // both walks reach the chain's end
		}, true},
		{"cache-off", p, progs, func(c *Config) { c.CacheCapacity = -1 }, false},
		{"streaming", p, progs, func(c *Config) { c.Residency = ResidencyStreaming }, false},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := DefaultConfig(2)
			cfg.MaxSupersteps = 12
			v.mutate(&cfg)
			base := make([][]float64, len(v.progs))
			for i, prog := range v.progs {
				base[i] = serialValues(t, v.part, cfg, prog)
			}
			cfg.WorkDir = t.TempDir()
			cfg.MaxConcurrentJobs = 2
			se, err := Open(Input{Partition: v.part}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer se.Close()
			results, errs := submitConcurrently(t, se, v.progs, make([]JobOptions, len(v.progs)))
			for i, err := range errs {
				if err != nil {
					t.Fatalf("%s: %v", v.progs[i].Name(), err)
				}
			}
			var evictions int64
			for i, res := range results {
				wantExact(t, res.Values, base[i], v.name+"/"+v.progs[i].Name())
				for _, sv := range res.Servers {
					evictions = max(evictions, sv.Cache.Evictions)
				}
			}
			if v.evicts && evictions == 0 {
				t.Fatalf("%s: no server evicted a tile", v.name)
			}
		})
	}
}

// TestMultiJobInterleaves pins that two concurrent jobs actually share the
// cluster rather than serializing: with both jobs rendezvousing at their
// first and sixth superstep edges, each job must observe superstep
// progress of the other between its own first and last step.
func TestMultiJobInterleaves(t *testing.T) {
	_, p := sessionGraph(t)
	cfg := DefaultConfig(2)
	cfg.WorkDir = t.TempDir()
	cfg.MaxSupersteps = 10
	cfg.MaxConcurrentJobs = 2
	se, err := Open(Input{Partition: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()

	rendezvous := func() func() {
		var wg sync.WaitGroup
		wg.Add(2)
		return func() { wg.Done(); wg.Wait() }
	}
	sync0, sync5 := rendezvous(), rendezvous()
	var mu sync.Mutex
	var events []int // job tag per progress callback, in arrival order
	progress := func(tag int) func(StepStats) {
		return func(st StepStats) {
			mu.Lock()
			events = append(events, tag)
			mu.Unlock()
			switch st.Superstep {
			case 0:
				sync0()
			case 5:
				sync5()
			}
		}
	}
	_, errs := submitConcurrently(t, se,
		[]Program{driftProg{}, driftProg{}},
		[]JobOptions{
			{Progress: progress(1)},
			{Progress: progress(2)},
		})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i+1, err)
		}
	}
	first := map[int]int{1: -1, 2: -1}
	last := map[int]int{}
	for i, tag := range events {
		if first[tag] < 0 {
			first[tag] = i
		}
		last[tag] = i
	}
	if first[1] < 0 || first[2] < 0 {
		t.Fatalf("missing progress events: %v", events)
	}
	if last[1] < first[2] || last[2] < first[1] {
		t.Fatalf("jobs ran serially, no interleaving: %v", events)
	}
}

// heldJobs starts n driftProg jobs whose coordinators block inside their
// first Progress callback until hold is closed, guaranteeing the session's
// run slots stay occupied. It returns once every job holds its slot.
func heldJobs(t *testing.T, se *Session, n int, hold <-chan struct{}, wg *sync.WaitGroup, errs []error) {
	t.Helper()
	started := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		var once sync.Once
		opts := JobOptions{
			MaxSupersteps: 2,
			Progress: func(StepStats) {
				once.Do(func() { started <- struct{}{} })
				<-hold
			},
		}
		go func(i int, opts JobOptions) {
			defer wg.Done()
			_, errs[i] = se.Submit(context.Background(), driftProg{}, opts)
		}(i, opts)
	}
	for i := 0; i < n; i++ {
		select {
		case <-started:
		case <-time.After(30 * time.Second):
			t.Fatal("held jobs never reached their first superstep")
		}
	}
}

// TestMultiJobQueueFull pins the admission controller's shed-load contract:
// with both run slots held and the one queue seat taken, a further Submit
// fails fast with ErrJobQueueFull — and the queued job still runs to
// completion once a slot frees.
func TestMultiJobQueueFull(t *testing.T) {
	_, p := sessionGraph(t)
	cfg := DefaultConfig(2)
	cfg.WorkDir = t.TempDir()
	cfg.MaxSupersteps = 2
	cfg.MaxConcurrentJobs = 2
	cfg.MaxQueuedJobs = 1
	se, err := Open(Input{Partition: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()

	hold := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 3)
	heldJobs(t, se, 2, hold, &wg, errs[:2])

	wg.Add(1)
	queued := make(chan struct{})
	go func() {
		defer wg.Done()
		close(queued)
		_, errs[2] = se.Submit(context.Background(), apps.PageRank{}, JobOptions{})
	}()
	<-queued
	time.Sleep(200 * time.Millisecond) // let the third Submit take the queue seat

	if _, err := se.Submit(context.Background(), apps.PageRank{}, JobOptions{}); !errors.Is(err, ErrJobQueueFull) {
		t.Fatalf("overflow Submit returned %v, want ErrJobQueueFull", err)
	}
	close(hold)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
}

// TestMultiJobCancelWhileQueued: cancelling a Submit parked in the
// admission queue returns its context error, frees the queue seat, and
// leaves the session fully usable.
func TestMultiJobCancelWhileQueued(t *testing.T) {
	_, p := sessionGraph(t)
	cfg := DefaultConfig(2)
	cfg.WorkDir = t.TempDir()
	cfg.MaxSupersteps = 2
	cfg.MaxConcurrentJobs = 2
	cfg.MaxQueuedJobs = 2
	se, err := Open(Input{Partition: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()

	hold := make(chan struct{})
	var wg sync.WaitGroup
	heldErrs := make([]error, 2)
	heldJobs(t, se, 2, hold, &wg, heldErrs)

	ctx, cancel := context.WithCancel(context.Background())
	queuedErr := make(chan error, 1)
	go func() {
		_, err := se.Submit(ctx, apps.PageRank{}, JobOptions{})
		queuedErr <- err
	}()
	time.Sleep(200 * time.Millisecond)
	cancel()
	if err := <-queuedErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled queued Submit returned %v, want context.Canceled", err)
	}
	close(hold)
	wg.Wait()
	for i, err := range heldErrs {
		if err != nil {
			t.Fatalf("held job %d: %v", i, err)
		}
	}
	if _, err := se.Submit(context.Background(), apps.PageRank{}, JobOptions{}); err != nil {
		t.Fatalf("Submit after queued cancellation: %v", err)
	}
}

// TestMultiJobCancelOne: cancelling one of two running jobs returns
// context.Canceled for that job only; its concurrent neighbour finishes
// bit-identical to a serial run and the session accepts further work.
func TestMultiJobCancelOne(t *testing.T) {
	_, p := sessionGraph(t)
	cfg := DefaultConfig(2)
	cfg.MaxSupersteps = 12
	base := serialValues(t, p, cfg, apps.PageRank{})
	cfg.WorkDir = t.TempDir()
	cfg.MaxConcurrentJobs = 2
	se, err := Open(Input{Partition: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	var driftErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, driftErr = se.Submit(ctx, driftProg{}, JobOptions{
			MaxSupersteps: 50,
			Progress: func(st StepStats) {
				if st.Superstep == 2 {
					cancel()
				}
			},
		})
	}()
	res, err := se.Submit(context.Background(), apps.PageRank{}, JobOptions{})
	wg.Wait()
	if err != nil {
		t.Fatalf("surviving job: %v", err)
	}
	if driftErr != context.Canceled {
		t.Fatalf("cancelled job returned %v, want context.Canceled itself", driftErr)
	}
	wantExact(t, res.Values, base, "job concurrent with a cancelled one")
	if _, err := se.Submit(context.Background(), apps.PageRank{}, JobOptions{MaxSupersteps: 2}); err != nil {
		t.Fatalf("Submit after cancellation: %v", err)
	}
}

// overlapAtStep0 returns one JobOptions per job whose Progress callbacks
// meet at superstep 0: neither job's coordinator leaves its step-0 edge
// before every job has reached it, so all of them are provably in flight
// together from superstep 1 on. then, if non-nil, runs once everyone has
// arrived, before anyone moves on.
func overlapAtStep0(t *testing.T, jobs int, then func()) []JobOptions {
	var mu sync.Mutex
	arrived := 0
	all := make(chan struct{})
	opts := make([]JobOptions, jobs)
	for i := range opts {
		opts[i].Progress = func(st StepStats) {
			if st.Superstep != 0 {
				return
			}
			mu.Lock()
			if arrived++; arrived == jobs {
				if then != nil {
					then()
				}
				close(all)
			}
			mu.Unlock()
			select {
			case <-all:
			case <-time.After(30 * time.Second):
				t.Errorf("jobs never overlapped at superstep 0")
			}
		}
	}
	return opts
}

// TestMultiJobSessionDead: a hard failure inside one concurrent job kills
// the whole session — its own Submit surfaces the cause, in-flight
// neighbours error out rather than hang, and later Submits fail fast with
// ErrSessionDead. The jobs meet at superstep 0 before the disk fault is
// armed, and WCC then stays parked at that edge until PageRank — the only
// job still reading on server 0 — has hit the fault and returned, so WCC is
// provably in flight when the session dies.
func TestMultiJobSessionDead(t *testing.T) {
	_, p := sessionGraph(t)
	boom := errors.New("injected multi-tenant disk failure")
	var armed, fired atomic.Bool
	cfg := DefaultConfig(2)
	cfg.WorkDir = t.TempDir()
	cfg.CacheCapacity = -1 // every superstep reads the disk
	cfg.MaxSupersteps = 8
	cfg.MaxConcurrentJobs = 2
	cfg.DiskFailureHook = func(server int, op, name string) error {
		if server == 0 && op == "read" && armed.Load() && fired.CompareAndSwap(false, true) {
			return boom
		}
		return nil
	}
	se, err := Open(Input{Partition: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()

	opts := overlapAtStep0(t, 2, func() { armed.Store(true) })
	prDone := make(chan struct{})
	meet := opts[1].Progress
	opts[1].Progress = func(st StepStats) {
		meet(st)
		if st.Superstep != 0 {
			return
		}
		select {
		case <-prDone:
		case <-time.After(30 * time.Second):
			t.Errorf("PageRank never returned")
		}
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(prDone)
		_, errs[0] = se.Submit(context.Background(), apps.PageRank{}, opts[0])
	}()
	go func() {
		defer wg.Done()
		_, errs[1] = se.Submit(context.Background(), apps.WCC{}, opts[1])
	}()
	wg.Wait()
	if !errors.Is(errs[0], boom) {
		t.Fatalf("PageRank returned %v, want the injected cause", errs[0])
	}
	if errs[1] == nil {
		t.Fatal("WCC survived a session-killing fault")
	}
	if _, err := se.Submit(context.Background(), apps.PageRank{}, JobOptions{}); !errors.Is(err, ErrSessionDead) {
		t.Fatalf("Submit on dead session returned %v, want ErrSessionDead", err)
	}
}

// TestMultiJobSharedLoads pins the refcounted tile sharing: two disk-bound
// concurrent sweeps (cache off, prefetch off) must take at least one tile
// from the share window instead of the disk, and their combined disk reads
// must come in strictly below two sequential serial jobs. The jobs meet at
// superstep 0, so both hold their run slots through seven shared sweeps.
func TestMultiJobSharedLoads(t *testing.T) {
	_, p := sessionGraph(t)
	progs := []Program{apps.PageRank{}, apps.PageRank{Damping: 0.8}}
	cfg := DefaultConfig(2)
	cfg.MaxSupersteps = 8
	cfg.CacheCapacity = -1
	cfg.PrefetchDepth = -1 // same synchronous per-tile reads in both sessions

	serialReads := int64(0)
	{
		scfg := cfg
		scfg.WorkDir = t.TempDir()
		se, err := Open(Input{Partition: p}, scfg)
		if err != nil {
			t.Fatal(err)
		}
		var last *Result
		for _, prog := range progs {
			if last, err = se.Submit(context.Background(), prog, JobOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		for _, sv := range last.Servers {
			serialReads += sv.Disk.ReadOps // cumulative since Open
		}
		se.Close()
	}

	mcfg := cfg
	mcfg.WorkDir = t.TempDir()
	mcfg.MaxConcurrentJobs = 2
	se, err := Open(Input{Partition: p}, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	results, errs := submitConcurrently(t, se, progs, overlapAtStep0(t, len(progs), nil))
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", progs[i].Name(), err)
		}
	}
	for i, res := range results {
		wantExact(t, res.Values, serialValues(t, p, cfg, progs[i]), progs[i].Name())
	}
	var sharedHits, concReads int64
	for s := 0; s < cfg.NumServers; s++ {
		reads := results[0].Servers[s].Disk.ReadOps
		if r := results[1].Servers[s].Disk.ReadOps; r > reads {
			reads = r // counters are cumulative; the later snapshot has them all
		}
		concReads += reads
		for _, res := range results {
			sharedHits += res.Servers[s].SharedTileLoads
		}
	}
	if sharedHits == 0 {
		t.Fatal("concurrent disk-bound jobs recorded no shared tile loads")
	}
	if concReads >= serialReads {
		t.Fatalf("concurrent jobs read %d tiles, serial back-to-back read %d — sharing saved nothing", concReads, serialReads)
	}
	t.Logf("shared tile loads: %d (disk reads %d concurrent vs %d serial)", sharedHits, concReads, serialReads)
}

// TestMultiJobOnDemand: the bit-identity contract holds under On-Demand
// replication too — concurrent jobs keep disjoint replica sets and their
// job-tagged collect batches reassemble the right results.
func TestMultiJobOnDemand(t *testing.T) {
	_, p := sessionGraph(t)
	progs := []Program{apps.PageRank{}, apps.WCC{}}
	cfg := DefaultConfig(3)
	cfg.MaxSupersteps = 15
	cfg.Replication = OnDemand
	base := make([][]float64, len(progs))
	for i, prog := range progs {
		base[i] = serialValues(t, p, cfg, prog)
	}
	cfg.WorkDir = t.TempDir()
	cfg.MaxConcurrentJobs = 2
	se, err := Open(Input{Partition: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	results, errs := submitConcurrently(t, se, progs, make([]JobOptions, len(progs)))
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", progs[i].Name(), err)
		}
	}
	for i, res := range results {
		wantExact(t, res.Values, base[i], "on-demand "+progs[i].Name())
	}
}

// TestMultiJobCrashRecoverySweep is the concurrent half of the chaos wall:
// two checkpointed jobs in flight, server 1 killed at every superstep (the
// kill point rotating through step-start, mid-step and at-barrier). Both
// jobs must recover from their own job-scoped checkpoints and finish
// bit-identical to fault-free serial runs — no cross-job corruption.
func TestMultiJobCrashRecoverySweep(t *testing.T) {
	p := chaosPartition(t)
	progs := []Program{apps.PageRank{}, apps.PageRank{Damping: 0.8}}
	base := make([][]float64, len(progs))
	for i, prog := range progs {
		ref := chaosConfig(t)
		res, err := New(ref).Run(Input{Partition: p}, prog)
		if err != nil {
			t.Fatal(err)
		}
		base[i] = res.Values
	}
	for ks := 0; ks < 6; ks++ {
		ks := ks
		t.Run(fmt.Sprintf("kill-step-%d", ks), func(t *testing.T) {
			cfg := chaosConfig(t)
			cfg.MaxConcurrentJobs = 2
			cfg.Faults = &FaultPlan{Kills: []Kill{{Server: 1, Step: ks, Point: KillPoint(ks % 3)}}}
			se, err := Open(Input{Partition: p}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer se.Close()
			results, errs := submitConcurrently(t, se, progs, make([]JobOptions, len(progs)))
			for i, err := range errs {
				if err != nil {
					t.Fatalf("%s: %v", progs[i].Name(), err)
				}
			}
			for i, res := range results {
				label := fmt.Sprintf("kill@%d job %d", ks, i)
				wantExact(t, res.Values, base[i], label)
				wantDead(t, res, label, 1)
				recoveries := 0
				for _, sv := range res.Servers {
					recoveries += sv.Recoveries
				}
				if recoveries == 0 {
					t.Fatalf("%s: no server reported a recovery round", label)
				}
			}
		})
	}
}

// TestMultiJobHangRecovery covers the fail-stop-silent case with two jobs
// in flight: server 1 hangs mid-step without declaring itself dead, the
// survivors' runner-local stall detectors must accuse and fence it, and
// both jobs recover bit-identical.
func TestMultiJobHangRecovery(t *testing.T) {
	p := chaosPartition(t)
	progs := []Program{apps.PageRank{}, apps.PageRank{Damping: 0.8}}
	base := make([][]float64, len(progs))
	for i, prog := range progs {
		ref := chaosConfig(t)
		res, err := New(ref).Run(Input{Partition: p}, prog)
		if err != nil {
			t.Fatal(err)
		}
		base[i] = res.Values
	}
	cfg := chaosConfig(t)
	cfg.MaxConcurrentJobs = 2
	cfg.Faults = &FaultPlan{Kills: []Kill{{Server: 1, Step: 2, Point: KillMidStep, Hang: true}}}
	se, err := Open(Input{Partition: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	results, errs := submitConcurrently(t, se, progs, make([]JobOptions, len(progs)))
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", progs[i].Name(), err)
		}
	}
	for i, res := range results {
		label := fmt.Sprintf("hang job %d", i)
		wantExact(t, res.Values, base[i], label)
		wantDead(t, res, label, 1)
	}
}

// TestMultiJobConcurrentStress is the race wall: on at least four scheduler
// threads, nine mixed jobs (different programs, weights, a mid-run
// cancellation) churn through three run slots, and every completed job must
// still be bit-identical to its serial baseline. `make race` runs this
// package under the race detector.
func TestMultiJobConcurrentStress(t *testing.T) {
	if old := runtime.GOMAXPROCS(0); old < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(old)
	}
	_, p := sessionGraph(t)
	cfg := DefaultConfig(2)
	cfg.MaxSupersteps = 10
	progs := []Program{apps.PageRank{}, apps.PageRank{Damping: 0.8}, apps.SSSP{Source: 1}, apps.WCC{}}
	base := make([][]float64, len(progs))
	for i, prog := range progs {
		base[i] = serialValues(t, p, cfg, prog)
	}
	cfg.WorkDir = t.TempDir()
	cfg.MaxConcurrentJobs = 3
	cfg.MaxQueuedJobs = 16
	se, err := Open(Input{Partition: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()

	const rounds = 2
	var wg sync.WaitGroup
	errCh := make(chan error, rounds*len(progs)+rounds)
	for r := 0; r < rounds; r++ {
		for i, prog := range progs {
			wg.Add(1)
			go func(i int, prog Program, weight int) {
				defer wg.Done()
				res, err := se.Submit(context.Background(), prog, JobOptions{Weight: weight})
				if err != nil {
					errCh <- fmt.Errorf("%s: %w", prog.Name(), err)
					return
				}
				for v := range base[i] {
					if res.Values[v] != base[i][v] {
						errCh <- fmt.Errorf("%s: vertex %d = %g, want %g", prog.Name(), v, res.Values[v], base[i][v])
						return
					}
				}
			}(i, prog, 1+i%3)
		}
		// One job per round is cancelled mid-run from its progress stream.
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, err := se.Submit(ctx, driftProg{}, JobOptions{
				MaxSupersteps: 40,
				Progress: func(st StepStats) {
					if st.Superstep == 1 {
						cancel()
					}
				},
			})
			if !errors.Is(err, context.Canceled) {
				errCh <- fmt.Errorf("cancelled stress job returned %v", err)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
