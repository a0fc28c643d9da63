package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runAA measures how far two sets of runs of the same binary disagree. It
// runs 2n sets, alternately for side A and side B; a set is one run of
// every workload in turn, each in a process of its own, so the sides see
// the same drift of the host. Per workload and end-to-end metric it prints
// both sides' medians, their relative difference and the bound, and per set
// the host's steal; the exit code is non-zero if a difference exceeds its
// bound.
func runAA(n int, seed uint64, secs float64, out string, stdout io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		logf("benchmark: %v", err)
		return 1
	}
	ws := workloads(fullScale)
	// values[workload][metric][side] collects one value per set.
	values := make(map[string]map[string][2][]float64)
	for _, w := range ws {
		values[w.name] = make(map[string][2][]float64)
	}
	fmt.Fprintf(stdout, "A/A: %d sets per side, window %.0f s, seed %d\n\n", n, secs, seed)
	for set := 0; set < 2*n; set++ {
		side := set % 2
		j0, ok0 := readJiffies()
		for _, w := range ws {
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-out", out)
			cmd.Stderr = io.Discard
			stdoutBytes, err := cmd.Output()
			if err != nil {
				logf("benchmark: set %d, %s: %v", set, w.name, err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(stdoutBytes), []byte("\n"))
			var res struct {
				Correct bool `json:"correct"`
				Metrics map[string]struct {
					Value float64 `json:"value"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || !res.Correct {
				logf("benchmark: set %d, %s: bad result line %q (%v)", set, w.name, lines[len(lines)-1], err)
				return 1
			}
			for _, d := range endToEnd {
				sides := values[w.name][d.name]
				sides[side] = append(sides[side], res.Metrics[d.name].Value)
				values[w.name][d.name] = sides
			}
		}
		steal := math.NaN()
		if j1, ok1 := readJiffies(); ok0 && ok1 {
			steal = stealPct(j0, j1)
		}
		fmt.Fprintf(stdout, "set %d (side %c): host.steal_pct %.1f\n", set, 'A'+side, steal)
	}

	fmt.Fprintf(stdout, "\n| workload | metric | median A | median B | difference | bound | |\n|---|---|---|---|---|---|---|\n")
	code := 0
	for _, w := range ws {
		for _, d := range endToEnd {
			sides := values[w.name][d.name]
			_, a, _ := quartiles(sides[0])
			_, b, _ := quartiles(sides[1])
			diff := math.Abs(b-a) / a
			verdict := "ok"
			switch {
			case diff > d.bound:
				verdict, code = "EXCEEDS BOUND", 1
			case diff > d.bound/2:
				verdict = "over half the bound"
			}
			fmt.Fprintf(stdout, "| %s | %s | %.4f | %.4f | %.2f%% | %.0f%% | %s |\n",
				w.name, d.name, a, b, 100*diff, 100*d.bound, verdict)
		}
	}
	return code
}
