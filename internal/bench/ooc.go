package bench

import (
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/disk"
)

func init() {
	register(Experiment{ID: "ooc", Title: "Out-of-core scale sweep — cache budget vs superstep time, prefetch off/on", Run: runOutOfCore})
}

// oocBudgets parses GRAPHH_OOC_BUDGETS ("100,50,25,12.5", percent of the
// per-server tile working set) or returns the default sweep.
func oocBudgets() []float64 {
	def := []float64{100, 50, 25, 12.5}
	s := os.Getenv("GRAPHH_OOC_BUDGETS")
	if s == "" {
		return def
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || f <= 0 {
			return def
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return def
	}
	return out
}

// runOutOfCore sweeps the per-server cache budget from all-in-memory down
// past the streaming crossover and, at every point, compares the synchronous
// demand-read loop (prefetch off) against the sweep-ahead pipeline
// (prefetch auto). The disk model matches the paper's testbed (~310 MB/s
// RAID reads) plus a 2ms per-operation cost, which is what batching and
// overlap exist to hide. Values are checked bit-identical across every
// configuration — the pipeline only changes where tile bytes come from.
func runOutOfCore(c *Context, w io.Writer) error {
	const dataset = "uk2007-sim"
	const servers = 4
	p, err := c.Partitioned(dataset)
	if err != nil {
		return err
	}
	// Per-server raw working set: the engine stores tiles uncompressed here
	// (CacheMode None), so encoded bytes ≈ SizeBytes and the budget knob
	// maps directly onto residency fractions.
	workingSet := p.TotalTileBytes() / servers

	run := func(budget float64, prefetch int) (*core.Result, error) {
		cfg := c.graphhConfig(servers)
		cfg.WorkersPerServer = 1
		cfg.CacheAuto = false
		cfg.CacheMode = compress.None // budget maps 1:1 onto tile bytes
		cfg.CacheCapacity = int64(float64(workingSet) * budget / 100)
		cfg.PrefetchDepth = prefetch
		cfg.Disk = disk.Config{
			ReadBandwidth:  310 << 20, // the paper's testbed RAID5 reads
			WriteBandwidth: 310 << 20,
			ReadLatency:    2 * time.Millisecond,
		}
		return core.New(cfg).Run(core.Input{Partition: p}, apps.PageRank{})
	}

	tw := newTable(w)
	fmt.Fprintln(tw, "budget%\tcap-MB\tresidency\tpolicy\toff-ms\ton-ms\tspeedup\thit%\tpf-issued\tpf-hits\tpf-wasted\tqueue-hw")
	var reference []float64
	for _, budget := range oocBudgets() {
		off, err := run(budget, -1)
		if err != nil {
			return err
		}
		on, err := run(budget, 0)
		if err != nil {
			return err
		}
		if reference == nil {
			reference = off.Values
		}
		for _, res := range []*core.Result{off, on} {
			for v := range reference {
				if math.Float64bits(res.Values[v]) != math.Float64bits(reference[v]) {
					return fmt.Errorf("ooc: budget %.1f%%: results not bit-identical at vertex %d", budget, v)
				}
			}
		}
		sv := on.Servers[0]
		var issued, hits, wasted, queueHW int64
		var hitRatio float64
		for _, s := range on.Servers {
			issued += s.PrefetchIssued
			hits += s.PrefetchHits
			wasted += s.PrefetchWasted
			if s.Disk.QueueHighWater > queueHW {
				queueHW = s.Disk.QueueHighWater
			}
			hitRatio += s.Cache.HitRatio()
		}
		hitRatio /= float64(len(on.Servers))
		offMS := float64(off.AvgStepDuration().Microseconds()) / 1000
		onMS := float64(on.AvgStepDuration().Microseconds()) / 1000
		fmt.Fprintf(tw, "%.1f\t%s\t%s\t%s\t%.1f\t%.1f\t%.2fx\t%.1f\t%d\t%d\t%d\t%d\n",
			budget, mb(cfgCapacity(workingSet, budget)), sv.Residency, sv.CachePolicy,
			offMS, onMS, offMS/onMS, hitRatio*100, issued, hits, wasted, queueHW)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "expectation: identical values at every point; the sweep-ahead pipeline wins most where misses dominate (≤25% budget), and each budget halving costs well under the 2x the pure-bandwidth model would predict, because batching amortizes the per-op latency and overlap hides it behind compute")
	return nil
}

// cfgCapacity mirrors the capacity computation of the sweep for reporting.
func cfgCapacity(workingSet int64, budget float64) int64 {
	return int64(float64(workingSet) * budget / 100)
}
