package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestFastDecileAndQuantile(t *testing.T) {
	seq := func(n int) []float64 { // n, n-1, …, 1: unsorted on purpose
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i)
		}
		return out
	}
	for _, tc := range []struct {
		n           int
		p10, median float64
		p95         float64
	}{
		{1, 1, 1, 1},
		{8, 1, 4, 8},    // floor(7/10) = 0 → the minimum
		{10, 1, 5, 10},  // floor(9/10) = 0
		{11, 2, 6, 11},  // floor(10/10) = 1
		{40, 4, 20, 38}, // floor(39/10) = 3; ceil(.95*40) = 38
		{100, 10, 50, 95},
	} {
		xs := seq(tc.n)
		if got := fastDecile(xs); got != tc.p10 {
			t.Errorf("fastDecile of 1..%d = %v, want %v", tc.n, got, tc.p10)
		}
		if got := quantile(xs, 0.5); got != tc.median {
			t.Errorf("median of 1..%d = %v, want %v", tc.n, got, tc.median)
		}
		if got := quantile(xs, 0.95); got != tc.p95 {
			t.Errorf("p95 of 1..%d = %v, want %v", tc.n, got, tc.p95)
		}
	}
}

// The expected values are statistics.quantiles(xs, n=4) of Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{2, 4, 4, 5, 7}, 3, 4, 6},
		{[]float64{0.35, 0.34, 0.36}, 0.34, 0.35, 0.36},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestParseProcStat(t *testing.T) {
	const before = "cpu  100 5 50 800 20 0 5 20 0 0\ncpu0 50 2 25 400 10 0 2 10 0 0\nintr 12345\n"
	const after = "cpu  160 5 70 1000 25 0 10 130 7 0\ncpu0 80 2 35 500 12 0 5 65 7 0\n"
	a, err := parseProcStat(before)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseProcStat(after)
	if err != nil {
		t.Fatal(err)
	}
	if a != (jiffies{total: 1000, steal: 20}) || b != (jiffies{total: 1400, steal: 130}) {
		t.Fatalf("parsed %+v and %+v", a, b)
	}
	if got := stealPct(a, b); got != 27.5 { // 110 of 400 jiffies
		t.Errorf("stealPct = %v, want 27.5", got)
	}
	if got := stealPct(b, b); got != 0 {
		t.Errorf("stealPct over an empty interval = %v, want 0", got)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4 5 6 7 8\n", "cpu 1 2 3 4 5 6 7\n", "cpu 1 2 x 4 5 6 7 8\n"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) succeeded", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	const status = "Name:\tbenchmark\nVmPeak:\t 1234567 kB\nVmHWM:\t  163840 kB\nVmRSS:\t  100000 kB\n"
	got, err := parseVmHWM(status)
	if err != nil || got != 160 {
		t.Fatalf("parseVmHWM = %v, %v; want 160 MiB", got, err)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tmany kB\n"} {
		if _, err := parseVmHWM(bad); err == nil {
			t.Errorf("parseVmHWM(%q) succeeded", bad)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	msec := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "round", Start: msec(0), End: msec(100), Parent: -1},
		{Name: "client a", Start: msec(10), End: msec(60), Parent: 0},
		{Name: "client b", Start: msec(40), End: msec(90), Parent: 0},  // overlaps a: union is 10..90
		{Name: "superstep", Start: msec(10), End: msec(30), Parent: 1}, // children of a: 20 + 10
		{Name: "superstep", Start: msec(30), End: msec(40), Parent: 1},
		{Name: "late", Start: msec(95), End: msec(120), Parent: 0}, // clipped to the parent: 95..100
	}
	want := []time.Duration{msec(100 - 80 - 5), msec(50 - 30), msec(50), msec(20), msec(10), msec(25)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %v, want %v", i, spans[i].Name, got[i], want[i])
		}
	}
	byName := selfMillisByName(spans)
	if byName["superstep"] != 30 || byName["round"] != 15 {
		t.Errorf("selfMillisByName = %v", byName)
	}

	var tr *tracer // a nil tracer records nothing and does not crash
	tr.end(tr.begin("x", -1, 0, 0))
	tr.add("x", -1, 0, 0, time.Now(), time.Now())
}

// The committed BENCHMARK.json must be what the harness's own tables render:
// every workload and metric it names is then one the harness emits.
func TestManifestMatchesHarness(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, manifestJSON()) {
		t.Fatalf("BENCHMARK.json differs from `benchmark -manifest`; regenerate it with\n  (cd benchmark && go run . -manifest > ../BENCHMARK.json)")
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads(fullScale) {
		check("workload", w.name)
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, at most 200 allowed", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		check("end-to-end metric", d.name)
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		hasSetup = hasSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") {
			t.Errorf("%s: unit %q, better %q", d.name, d.unit, d.better)
		}
	}
	for _, d := range perLayer {
		check("per-layer metric", d.name)
	}
}

// TestSmoke runs all four workloads on tiny graphs twice. The traced pass
// checks that results are verified and counted, that every per-layer metric
// BENCHMARK.json promises is computed and on the result line, and that the
// trace file is written. The untraced pass gets one deliberately wrong
// expected value per client: exactly the sessions' first jobs must then
// count as failed operations, and the end-to-end metrics must still be there.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads(smokeScale) {
		w := w
		t.Run(w.name, func(t *testing.T) {
			pl := smokePlan(3, t.TempDir(), true)
			rep, err := measure(ctx, w, pl)
			if err != nil {
				t.Fatal(err)
			}
			jobs := len(w.clients) * (pl.coldStarts + pl.warmups + rep.Provenance.Samples + rep.Provenance.TracedSamples)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted != jobs {
				t.Errorf("correct=%v attempted=%d failed=%d, want true %d 0", rep.Correct, rep.Attempted, rep.Failed, jobs)
			}
			checkResultLine(t, rep, perLayer)
			// Every per-layer metric must have been computed, not defaulted,
			// and nothing may be computed that the manifest does not list.
			for _, d := range perLayer {
				if _, ok := rep.PerLayer[d.name]; !ok && !(isServiceMetric(d.name) && !w.service) {
					t.Errorf("per-layer metric %s was never computed", d.name)
				}
			}
			for name := range rep.PerLayer {
				if !listed[name] {
					t.Errorf("harness computed %s, which BENCHMARK.json does not list", name)
				}
			}
			if _, err := os.Stat(filepath.Join(pl.outDir, w.name+".trace.json")); err != nil {
				t.Errorf("no trace file: %v", err)
			}
			if rep.SelfMS["superstep"] <= 0 {
				t.Errorf("no self time under superstep spans: %v", rep.SelfMS)
			}

			pl = smokePlan(3, t.TempDir(), false)
			pl.skew = func(expected [][]float64) {
				for c := range expected {
					expected[c][1] += 0.5
				}
			}
			if rep, err = measure(ctx, w, pl); err != nil {
				t.Fatal(err)
			}
			if want := len(w.clients) * pl.coldStarts; rep.Correct || rep.Failed != want {
				t.Errorf("with a wrong oracle: correct=%v failed=%d, want false %d", rep.Correct, rep.Failed, want)
			}
			checkResultLine(t, rep, endToEnd)
			for _, d := range endToEnd {
				if rep.EndToEnd[d.name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, rep.EndToEnd[d.name])
				}
			}
		})
	}
}

// checkResultLine parses the run's last output line the way the driver does
// and checks it holds exactly the given metrics, each with its unit.
func checkResultLine(t *testing.T, rep *report, defs []metricDef) {
	t.Helper()
	var line map[string]json.RawMessage
	if err := json.Unmarshal(resultLine(rep), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", line)
	}
	var metrics map[string]struct {
		Value *float64
		Unit  string
	}
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(defs) {
		t.Errorf("result line has %d metrics, want %d", len(metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := metrics[d.name]; !ok || m.Value == nil || m.Unit != d.unit {
			t.Errorf("metric %s missing from the result line or without its unit %q: %+v", d.name, d.unit, m)
		}
	}
}

var listed = func() map[string]bool {
	out := make(map[string]bool)
	for _, d := range perLayer {
		out[d.name] = true
	}
	return out
}()

// isServiceMetric marks the metrics that exist only on svc-mixed.
func isServiceMetric(name string) bool { return strings.HasPrefix(name, "service.") }

// TestGuardsReject feeds each full-scale regime guard one unit that is in
// its regime and units that have left it in each way the guard names.
func TestGuardsReject(t *testing.T) {
	guards := make(map[string]*workload)
	for _, w := range workloads(fullScale) {
		guards[w.name] = w
	}
	for _, tc := range []struct {
		workload string
		good     unit
		bad      []unit
	}{
		{"pr-mem",
			unit{counters: map[string]float64{"core.migrated_tiles": 3, "cache.misses": 3, "disk.read_ops": 6}},
			[]unit{
				{counters: map[string]float64{"core.migrated_tiles": 3, "cache.misses": 4, "disk.read_ops": 6}},
				{counters: map[string]float64{"core.migrated_tiles": 0, "cache.misses": 0, "disk.read_ops": 1}},
			}},
		{"pr-ooc",
			unit{residency: "cached", counters: map[string]float64{"cache.hit_ratio": 0.25, "core.prefetch_hits": 500, "core.checkpoints": 2}},
			[]unit{
				{residency: "cached", counters: map[string]float64{"cache.hit_ratio": 0.05, "core.prefetch_hits": 500, "core.checkpoints": 2}},
				{residency: "cached", counters: map[string]float64{"cache.hit_ratio": 0.95, "core.prefetch_hits": 500, "core.checkpoints": 2}},
				{residency: "cached", counters: map[string]float64{"cache.hit_ratio": 0.25, "core.prefetch_hits": 0, "core.checkpoints": 2}},
				{residency: "cached", counters: map[string]float64{"cache.hit_ratio": 0.25, "core.prefetch_hits": 500, "core.checkpoints": 1}},
				{residency: "streaming", counters: map[string]float64{"cache.hit_ratio": 0.25, "core.prefetch_hits": 500, "core.checkpoints": 2}},
			}},
		{"sssp-grid",
			unit{counters: map[string]float64{"core.supersteps": 410, "comm.dense_msgs": 0, "core.skipped_tiles": 1800}},
			[]unit{
				{counters: map[string]float64{"core.supersteps": 120, "comm.dense_msgs": 0, "core.skipped_tiles": 1800}},
				{counters: map[string]float64{"core.supersteps": 410, "comm.dense_msgs": 7, "core.skipped_tiles": 1800}},
				{counters: map[string]float64{"core.supersteps": 410, "comm.dense_msgs": 0, "core.skipped_tiles": 0}},
			}},
		{"svc-mixed",
			unit{counters: map[string]float64{"service.jobs_rejected": 0}},
			[]unit{{counters: map[string]float64{"service.jobs_rejected": 1}}}},
	} {
		w := guards[tc.workload]
		if err := w.guard(&tc.good); err != nil {
			t.Errorf("%s: guard rejects a unit in its regime: %v", tc.workload, err)
		}
		for i := range tc.bad {
			if err := w.guard(&tc.bad[i]); err == nil {
				t.Errorf("%s: guard accepts bad unit %d: %+v", tc.workload, i, tc.bad[i])
			}
		}
	}
	ooc := guards["pr-ooc"]
	device := []*unit{{counters: map[string]float64{"disk.modelled_ms": 510}}}
	if err := ooc.windowGuard(device, 0.60); err != nil {
		t.Errorf("pr-ooc: window guard rejects a run whose job is 85%% device time: %v", err)
	}
	if err := ooc.windowGuard(device, 1.40); err == nil {
		t.Error("pr-ooc: window guard accepts a run in which the disk explains 36% of a job")
	}
}

func TestOverlapGuard(t *testing.T) {
	svc, err := workloadByName(workloads(fullScale), "svc-mixed")
	if err != nil {
		t.Fatal(err)
	}
	rounds := func(overlapped, serial int) []*unit {
		var us []*unit
		for i := 0; i < overlapped+serial; i++ {
			us = append(us, &unit{overlap: i < overlapped})
		}
		return us
	}
	if err := svc.windowGuard(rounds(9, 1), 0); err != nil {
		t.Errorf("svc-mixed: window guard rejects 9 overlapping rounds in 10: %v", err)
	}
	if err := svc.windowGuard(rounds(7, 3), 0); err == nil {
		t.Error("svc-mixed: window guard accepts 7 overlapping rounds in 10")
	}
}

func TestComposite(t *testing.T) {
	// Three units of four segments; a stall (the 9s) hits a different
	// segment of each unit, so no whole unit is clean but every segment is
	// clean in two units out of three.
	units := [][]float64{
		{1, 2, 9, 4},
		{9, 2, 3, 4},
		{1, 9, 3, 4},
	}
	if got, err := composite(units, 0); err != nil || got != 1+2+3+4 {
		t.Errorf("composite = %v, %v; want 10", got, err)
	}
	// In two pieces the stalls no longer separate: {3,11,10} + {13,7,7}.
	if got, err := composite(units, 2); err != nil || got != 3+7 {
		t.Errorf("composite in 2 pieces = %v, %v; want 10", got, err)
	}
	if got, _ := composite(units, 1); got != 16 { // whole units: 16, 18, 17
		t.Errorf("composite in 1 piece = %v, want the fastest whole unit's 16", got)
	}
	if _, err := composite([][]float64{{1, 2}, {1, 2, 3}}, 0); err == nil {
		t.Error("composite accepts units with different numbers of marks")
	}
}
