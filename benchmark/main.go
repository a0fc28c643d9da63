// Command benchmark is the repository's regression benchmark: four long
// workloads over the public graphh API, end-to-end metrics judged on their
// fast decile, and a traced run that attributes time to layers from outside
// (spans around calls into the system, counter deltas of graphh.Result, and
// probes of single layer functions). README.md in this directory explains
// every metric and workload; BENCHMARK.json at the repository root is the
// contract the driver reads.
//
//	bash benchmark/run.sh --workload pr-mem --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds: how long one run samples warm
// units when --seconds is not given.
const runSeconds = 20

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: pr-mem, pr-ooc, sssp-grid or svc-mixed")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs (RMAT edges, grid weights, the service graph)")
	secs := fs.Float64("seconds", runSeconds, "length of the sampling window")
	trace := fs.Int("trace", 0, "1 = traced run: spans, per-layer metrics and layer probes instead of the end-to-end metrics")
	out := fs.String("out", "out", "directory for result files, traces and the sessions' work directories")
	smoke := fs.Bool("smoke", false, "run all four workloads once on tiny graphs (3 samples each)")
	aa := fs.Int("aa", 0, "A/A mode: run N alternating sets per side of this binary and compare the sides")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx := context.Background()
	switch {
	case *manifest:
		stdout.Write(manifestJSON())
		return 0
	case *smoke:
		for _, w := range workloads(smokeScale) {
			rep, err := measure(ctx, w, smokePlan(*seed, *out, *trace != 0))
			if err != nil {
				logf("benchmark: %v", err)
				return 1
			}
			printReport(os.Stderr, rep)
			if !rep.Correct {
				return 1
			}
		}
		return 0
	case *aa > 0:
		return runAA(*aa, *seed, *secs, *out, stdout)
	}

	w, err := workloadByName(workloads(fullScale), *name)
	if err != nil {
		logf("benchmark: %v", err)
		return 2
	}
	rep, err := measure(ctx, w, fullPlan(*seed, *secs, *out, *trace != 0))
	if err != nil {
		logf("benchmark: %v", err)
		return 1
	}
	printReport(os.Stderr, rep)
	stdout.Write(append(resultLine(rep), '\n'))
	return 0
}

func fullPlan(seed uint64, secs float64, out string, traced bool) plan {
	pl := plan{
		seed: seed, window: time.Duration(secs * float64(time.Second)), minSamples: 5,
		coldStarts: 5, warmups: 2, traced: traced, outDir: out,
	}
	if traced {
		pl.coldStarts = 1 // the traced run reports no setup_s
	}
	return pl
}

func smokePlan(seed uint64, out string, traced bool) plan {
	return plan{seed: seed, minSamples: 3, coldStarts: 2, warmups: 1, traced: traced, outDir: out}
}

// resultLine is the last line of standard output: the end-to-end metrics of
// an untraced run, the per-layer metrics of a traced one.
func resultLine(rep *report) []byte {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, rep.EndToEnd
	if rep.Provenance.Traced {
		defs, vals = perLayer, rep.PerLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.name] = value{vals[d.name], d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		panic(err) // only NaN or Inf can fail here, and those are bugs
	}
	return b
}

// printReport writes every metric by name with its unit.
func printReport(w io.Writer, rep *report) {
	p := rep.Provenance
	fmt.Fprintf(w, "%s  seed=%d  samples=%d+%d  window=%.0fs  steal=%.1f%%  %s  GOMAXPROCS=%d  git=%s\n",
		p.Workload, p.Seed, p.Samples, p.TracedSamples, p.WindowSeconds, p.HostStealPct, p.GoVersion, p.GOMAXPROCS, p.GitSHA)
	fmt.Fprintf(w, "  operations: %d attempted, %d failed, correct=%v\n", rep.Attempted, rep.Failed, rep.Correct)
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-34s %14.6f %s\n", d.name, rep.EndToEnd[d.name], d.unit)
	}
	for _, name := range []string{"job_s_whole_p10", "job_s_whole_p50", "job_s_whole_p95", "cpu_s_per_job_whole_p10", "cpu_s_per_job_whole_p50"} {
		fmt.Fprintf(w, "  %-34s %14.6f s   (whole units; printed, never gated)\n", name, rep.EndToEnd[name])
	}
	if !p.Traced {
		return
	}
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.name, rep.PerLayer[d.name], d.unit)
	}
	names := make([]string, 0, len(rep.SelfMS))
	for n := range rep.SelfMS {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  self time of %-21s %14.3f ms\n", "\""+n+"\"", rep.SelfMS[n])
	}
}

// manifestJSON renders BENCHMARK.json from the tables this harness runs on,
// so the committed file cannot drift from the code (a test compares them).
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads(fullScale) {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.name, d.unit, d.better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}
