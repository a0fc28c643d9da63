package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// plan says how much of each thing one run does.
type plan struct {
	seed       uint64
	window     time.Duration // the warm units are sampled for at least this long
	minSamples int           // and at least this many times
	coldStarts int           // setup_s is the fast decile of this many cold starts
	warmups    int           // warm units discarded before the window opens
	traced     bool
	outDir     string
	// skew, when set, corrupts the oracle's expectation; tests use it to
	// check that a wrong result is counted as a failed operation.
	skew func(expected [][]float64)
}

// provenance is carried by every output file, so that a surprising number
// can be told apart from a noisy host or a different input.
type provenance struct {
	Workload      string         `json:"workload"`
	Why           string         `json:"why"`
	GitSHA        string         `json:"git_sha"`
	GoVersion     string         `json:"go_version"`
	GOMAXPROCS    int            `json:"gomaxprocs"`
	NProc         int            `json:"nproc"`
	Seed          uint64         `json:"seed"`
	Sizes         map[string]int `json:"sizes"`
	Servers       int            `json:"servers"`
	Workers       int            `json:"workers_per_server"`
	Traced        bool           `json:"traced"`
	WindowSeconds float64        `json:"window_seconds"`
	ColdStarts    int            `json:"cold_starts"`
	Warmups       int            `json:"warmups"`
	Samples       int            `json:"samples"`
	TracedSamples int            `json:"traced_samples"`
	HostStealPct  float64        `json:"host.steal_pct"`
}

// report is the outcome of one run of one workload.
type report struct {
	Provenance provenance `json:"provenance"`
	Correct    bool       `json:"correct"`
	Attempted  int        `json:"attempted"`
	Failed     int        `json:"failed"`
	// EndToEnd holds the gated metrics plus the medians and p95s that are
	// printed but never gated; PerLayer and SelfMS only on a traced run.
	EndToEnd map[string]float64 `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	SelfMS   map[string]float64 `json:"span_self_ms,omitempty"`
}

func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // the checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

// measure runs one workload: cold starts, warm-ups, the sampling window,
// verification, regime guards and, on a traced run, spans and layer probes.
func measure(ctx context.Context, w *workload, pl plan) (*report, error) {
	if err := os.MkdirAll(pl.outDir, 0o755); err != nil {
		return nil, err
	}
	workRoot, err := os.MkdirTemp(pl.outDir, "work-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workRoot)

	g := w.graph(pl.seed)
	expected := make([][]float64, len(w.clients))
	for c, spec := range w.clients {
		expected[c] = spec.oracle(g)
	}
	if pl.skew != nil {
		pl.skew(expected)
	}

	var tr *tracer
	if pl.traced {
		tr = newTracer()
	}
	ops := &tally{}

	// Cold starts. The last session stays open and serves the warm units.
	var s *session
	var colds []*cold
	for i := 0; i < pl.coldStarts; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("closing cold start %d: %w", i-1, err)
			}
			// Collect the closed session now, so that peak RSS measures one
			// deployment and not how many dead ones the collector had yet
			// to notice.
			runtime.GC()
		}
		var c *cold
		s, c, err = coldStart(ctx, w, g, expected, filepath.Join(workRoot, fmt.Sprintf("cold%d", i)), tr, ops)
		if err != nil {
			return nil, fmt.Errorf("cold start %d: %w", i, err)
		}
		colds = append(colds, c)
	}
	closed := false
	defer func() {
		if !closed {
			s.close()
		}
	}()

	sample := func(tr *tracer) (*unit, error) {
		u, err := s.runUnit(ctx, tr, -1)
		if err != nil {
			return nil, err
		}
		for c, j := range u.jobs {
			ops.attempted++
			if err := checkSame(j.values, s.first[c]); err != nil {
				ops.failed++
				logf("%s: unit %d, %s job: %v", w.name, s.units-1, w.clients[c].program.Name, err)
			}
			u.jobs[c].values = nil
		}
		if err := w.guard(u); err != nil {
			return nil, fmt.Errorf("regime guard of %s, unit %d: %w", w.name, s.units-1, err)
		}
		return u, nil
	}
	for i := 0; i < pl.warmups; i++ {
		if _, err := sample(nil); err != nil {
			return nil, err
		}
	}

	// The window: untraced units, then (on a traced run) as long again with
	// spans recorded.
	steal0, stealOK := readJiffies()
	mem0 := readMem()
	window := func(d time.Duration, tr *tracer) ([]*unit, error) {
		var us []*unit
		for start := time.Now(); len(us) < pl.minSamples || time.Since(start) < d; {
			u, err := sample(tr)
			if err != nil {
				return nil, err
			}
			us = append(us, u)
		}
		return us, nil
	}
	var plain, traced []*unit
	if pl.traced {
		if plain, err = window(pl.window/2, nil); err == nil {
			traced, err = window(pl.window/2, tr)
		}
	} else {
		plain, err = window(pl.window, nil)
	}
	if err != nil {
		return nil, err
	}
	all := append(append([]*unit(nil), plain...), traced...)
	mem1 := readMem()
	steal := 0.0
	if steal1, ok := readJiffies(); ok && stealOK {
		steal = stealPct(steal0, steal1)
	}

	closed = true
	if err := s.close(); err != nil {
		return nil, fmt.Errorf("closing the session: %w", err)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, fmt.Errorf("peak RSS: %w", err)
	}

	walls, cpus := unitTimes(plain)
	setup, err := setupTime(colds)
	if err != nil {
		return nil, err
	}
	jobWall, err := composite(segments(plain, wallOf), 0)
	if err != nil {
		return nil, err
	}
	jobCPU, err := composite(segments(plain, cpuOf), cpuPieces)
	if err != nil {
		return nil, err
	}
	if w.windowGuard != nil {
		if err := w.windowGuard(all, jobWall); err != nil {
			return nil, fmt.Errorf("regime guard of %s: %w", w.name, err)
		}
	}
	rep := &report{
		Provenance: provenance{
			Workload: w.name, Why: w.why, GitSHA: gitSHA(), GoVersion: runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), Seed: pl.seed, Sizes: w.sizes,
			Servers: servers, Workers: workers, Traced: pl.traced, WindowSeconds: pl.window.Seconds(),
			ColdStarts: pl.coldStarts, Warmups: pl.warmups, Samples: len(plain), TracedSamples: len(traced),
			HostStealPct: steal,
		},
		Correct: ops.failed == 0, Attempted: ops.attempted, Failed: ops.failed,
		EndToEnd: map[string]float64{
			"setup_s":       setup,
			"job_s":         jobWall,
			"cpu_s_per_job": jobCPU,
			"peak_rss_mb":   rss,
			// Whole-unit statistics, printed beside the gated composites.
			"job_s_whole_p10":         fastDecile(walls),
			"job_s_whole_p50":         quantile(walls, 0.5),
			"job_s_whole_p95":         quantile(walls, 0.95),
			"cpu_s_per_job_whole_p10": fastDecile(cpus),
			"cpu_s_per_job_whole_p50": quantile(cpus, 0.5),
		},
	}
	if !pl.traced {
		return rep, writeJSON(filepath.Join(pl.outDir, w.name+".json"), rep)
	}

	layer := layerMetrics(w, s, all)
	tracedWall, err := composite(segments(traced, wallOf), 0)
	if err != nil {
		return nil, err
	}
	layer["trace.overhead_pct"] = 100 * (tracedWall - jobWall) / jobWall
	layer["core.edges_per_s"] = float64(g.NumEdges()) * layer["core.supersteps"] / jobWall
	layer["host.steal_pct"] = steal
	layer["host.nproc"] = float64(runtime.NumCPU())
	n := float64(len(all))
	layer["runtime.alloc_mb_per_job"] = float64(mem1.alloc-mem0.alloc) / mib / n
	layer["runtime.gc_cycles_per_job"] = float64(mem1.gcs-mem0.gcs) / n
	layer["runtime.gc_pause_ms_per_job"] = float64(mem1.pauseNS-mem0.pauseNS) / 1e6 / n

	probes, err := runProbes(probeShape(s, all, filepath.Join(workRoot, "probe")))
	if err != nil {
		return nil, err
	}
	for k, v := range probes {
		layer[k] = v
	}
	rep.PerLayer = layer
	rep.SelfMS = selfMillisByName(tr.spans)
	if err := writeChromeTrace(filepath.Join(pl.outDir, w.name+".trace.json"), w.name, tr.spans, selfTimes(tr.spans)); err != nil {
		return nil, err
	}
	return rep, writeJSON(filepath.Join(pl.outDir, w.name+".layers.json"), rep)
}

// cpuPieces is how many pieces a unit's CPU time is judged in (see
// composite): 16 keeps a piece of the shortest jobs above 15 ms.
const cpuPieces = 16

func wallOf(a, b mark) float64 { return b.at.Sub(a.at).Seconds() }
func cpuOf(a, b mark) float64  { return (b.cpu - a.cpu).Seconds() }

// segments cuts every unit's timeline into the wall or CPU time between
// consecutive marks, the input of composite.
func segments(us []*unit, of func(a, b mark) float64) [][]float64 {
	out := make([][]float64, len(us))
	for i, u := range us {
		out[i] = make([]float64, len(u.marks)-1)
		for k := range out[i] {
			out[i][k] = of(u.marks[k], u.marks[k+1])
		}
	}
	return out
}

// setupTime is the composite over the cold starts: the fastest partition,
// the fastest open and the fastest of each segment of the first unit.
func setupTime(colds []*cold) (float64, error) {
	var splits, opens []float64
	var firsts []*unit
	for _, c := range colds {
		splits = append(splits, c.split.Seconds())
		opens = append(opens, c.open.Seconds())
		firsts = append(firsts, c.first)
	}
	first, err := composite(segments(firsts, wallOf), 0)
	return fastDecile(splits) + fastDecile(opens) + first, err
}

func unitTimes(us []*unit) (walls, cpus []float64) {
	for _, u := range us {
		walls = append(walls, u.wall.Seconds())
		cpus = append(cpus, u.cpu.Seconds())
	}
	return walls, cpus
}

// layerMetrics condenses the units' counters into per-layer metrics: the
// median of each counter (with one job at a time they repeat exactly, so
// the median is the value) and percentiles of the pooled timings.
func layerMetrics(w *workload, s *session, us []*unit) map[string]float64 {
	out := make(map[string]float64)
	series := make(map[string][]float64)
	var stepMS, doneMS, wallMS []float64
	for _, u := range us {
		for k, v := range u.counters {
			series[k] = append(series[k], v)
		}
		wallMS = append(wallMS, ms(u.wall))
		for _, j := range u.jobs {
			doneMS = append(doneMS, ms(j.done.Sub(j.submitAt)))
			for i, st := range j.steps {
				if i > 0 { // step 0 carries the job's start-up
					stepMS = append(stepMS, ms(st.Duration))
				}
			}
		}
	}
	for k, vs := range series {
		out[k] = quantile(vs, 0.5)
	}
	out["core.step_ms_p10"] = fastDecile(stepMS)
	out["core.step_ms_p50"] = quantile(stepMS, 0.5)
	out["core.step_ms_p95"] = quantile(stepMS, 0.95)
	out["job.wall_ms_p50"] = quantile(wallMS, 0.5)
	out["job.wall_ms_p95"] = quantile(wallMS, 0.95)
	if w.service {
		out["service.submit_to_done_ms_p50"] = quantile(doneMS, 0.5)
		out["service.submit_to_done_ms_p95"] = quantile(doneMS, 0.95)
	}
	out["core.open_s"] = s.cold.open.Seconds()
	out["tile.split_s"] = s.cold.split.Seconds()
	out["tile.num_tiles"] = float64(s.part.NumTiles())
	out["tile.bytes_mb"] = float64(s.part.TotalTileBytes()) / mib
	return out
}

// probeShape derives the probes' input from what the units did.
func probeShape(s *session, us []*unit, dir string) probeInput {
	var updated, steps, tiles, msgs, wire float64
	for _, u := range us {
		for _, j := range u.jobs {
			for _, st := range j.steps {
				updated += float64(st.Updated)
				wire += float64(st.WireBytes)
				msgs += float64(st.DenseMsgs + st.SparseMsgs)
			}
		}
		steps += u.counters["core.supersteps"]
		tiles += u.counters["core.loaded_tiles"]
	}
	return probeInput{
		part:            s.part,
		values:          s.first[0],
		updatesPerBatch: int(updated / max(tiles, 1)),
		activePerStep:   int(updated / max(steps, 1)),
		wireBytesPerMsg: int(wire / max(msgs, 1)),
		transport:       s.opts.Transport,
		cacheMode:       s.prev[0].CacheMode,
		cachePolicy:     s.prev[0].CachePolicy,
		dir:             dir,
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
