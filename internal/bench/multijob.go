package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/disk"
)

func init() {
	register(Experiment{ID: "multijob", Title: "Multi-tenant session — two concurrent disk-bound PageRank jobs vs back-to-back, shared tile sweeps", Run: runMultiJob})
}

// runMultiJob measures what the multi-tenant session buys a serving
// deployment: two disk-bound PageRank jobs (damping 0.85 and 0.80) run
// once back-to-back on a classic session and once concurrently on a
// session opened with MaxConcurrentJobs=2. The edge cache is off and
// prefetch disabled, so every superstep sweep pays its tile reads — the
// regime where the share window matters: when both jobs sweep the same
// tiles, one disk read serves both. Results must be bit-identical between
// the two modes per job; the interesting numbers are the wall-clock ratio
// (two concurrent jobs should finish in well under 2x one serial pass)
// and the shared-load count that explains it.
func runMultiJob(c *Context, w io.Writer) error {
	const dataset = "uk2007-sim"
	const servers = 4
	p, err := c.Partitioned(dataset)
	if err != nil {
		return err
	}

	cfg := c.graphhConfig(servers)
	cfg.WorkersPerServer = 1
	cfg.CacheAuto = false
	cfg.CacheCapacity = -1 // no edge cache: every sweep re-reads its tiles
	cfg.PrefetchDepth = -1 // demand reads in both modes (multi disables sweep-ahead)
	cfg.Disk = disk.Config{
		ReadBandwidth:  310 << 20, // the paper's testbed RAID5 reads
		WriteBandwidth: 310 << 20,
		ReadLatency:    2 * time.Millisecond,
	}

	progs := []core.Program{apps.PageRank{}, apps.PageRank{Damping: 0.80}}

	// Serial reference: a classic session, both jobs back-to-back.
	se, err := core.Open(core.Input{Partition: p}, cfg)
	if err != nil {
		return err
	}
	serial := make([]*core.Result, len(progs))
	serialStart := time.Now()
	for i, prog := range progs {
		serial[i], err = se.Submit(context.Background(), prog, core.JobOptions{})
		if err != nil {
			se.Close()
			return err
		}
	}
	serialWall := time.Since(serialStart)
	// Disk counters are cumulative since Open; the last job's snapshot
	// holds the session total.
	var serialReads int64
	for _, sv := range serial[len(serial)-1].Servers {
		serialReads += sv.Disk.ReadOps
	}
	if err := se.Close(); err != nil {
		return err
	}

	// Concurrent: same config, multi-tenant session, both Submits in flight.
	mcfg := cfg
	mcfg.MaxConcurrentJobs = 2
	se, err = core.Open(core.Input{Partition: p}, mcfg)
	if err != nil {
		return err
	}
	defer se.Close()
	conc := make([]*core.Result, len(progs))
	errs := make([]error, len(progs))
	var wg sync.WaitGroup
	concStart := time.Now()
	for i, prog := range progs {
		wg.Add(1)
		go func(i int, prog core.Program) {
			defer wg.Done()
			conc[i], errs[i] = se.Submit(context.Background(), prog, core.JobOptions{})
		}(i, prog)
	}
	wg.Wait()
	concWall := time.Since(concStart)
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("multijob: concurrent job %d: %w", i, err)
		}
	}

	// The multi-tenant path must not change a single bit of either job.
	for i := range progs {
		for v := range serial[i].Values {
			if math.Float64bits(conc[i].Values[v]) != math.Float64bits(serial[i].Values[v]) {
				return fmt.Errorf("multijob: job %d not bit-identical at vertex %d", i, v)
			}
		}
	}

	// Each job snapshots the cumulative per-server counters at its finish;
	// the later finisher's snapshot is the session total. SharedTileLoads
	// is per-job: every count is a disk read the sibling paid.
	var concReads, sharedLoads int64
	for s := range conc[0].Servers {
		reads := conc[0].Servers[s].Disk.ReadOps
		if r := conc[1].Servers[s].Disk.ReadOps; r > reads {
			reads = r
		}
		concReads += reads
		sharedLoads += conc[0].Servers[s].SharedTileLoads + conc[1].Servers[s].SharedTileLoads
	}

	tw := newTable(w)
	fmt.Fprintln(tw, "mode\tjobs\twall-ms\tdisk-reads\tshared-loads\tthroughput")
	fmt.Fprintf(tw, "back-to-back\t%d\t%s\t%d\t-\t1.00x\n",
		len(progs), ms(serialWall), serialReads)
	fmt.Fprintf(tw, "concurrent\t%d\t%s\t%d\t%d\t%.2fx\n",
		len(progs), ms(concWall), concReads, sharedLoads,
		float64(serialWall)/float64(concWall))
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "expectation: bit-identical per-job values (checked); the concurrent session finishes both jobs in well under 2x one serial pass because interleaved sweeps share tile loads — every shared-load is a disk read one job paid for both")
	return nil
}
