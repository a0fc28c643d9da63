package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fastDecile is the nearest-rank 10th percentile, sorted[floor((n-1)/10)]:
// the statistic every gated timing uses. On a VM whose vCPUs are stolen
// 10–30 % of the time the slow tail of identical jobs moves by tens of
// percent between windows while the fast decile moves by a few, so the
// fast decile is what tells two builds of the code apart.
func fastDecile(xs []float64) float64 {
	s := sorted(xs)
	return s[(len(s)-1)/10]
}

// quantile is the nearest-rank q-quantile, sorted[ceil(q*n)-1], used for
// the medians and p95s that are printed and traced but never gated.
func quantile(xs []float64, q float64) float64 {
	s := sorted(xs)
	i := int(q*float64(len(s))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// quartiles returns the first, second and third quartile cut points the way
// Python's statistics.quantiles(xs, n=4) computes them (exclusive method),
// so the spread this harness prints is the one the acceptance check uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// composite is the fast-decile time of a unit of work assembled piece by
// piece: for each segment between two consecutive marks, the fast decile of
// that segment over all units, summed over the segments. When the
// hypervisor takes a vCPU for a few milliseconds it spoils the segments it
// hits, not the whole job; under 20 % steal hardly any 300 ms job is clean,
// but nine in ten 1–15 ms segments are. Measured here, this statistic moves
// 4–10 % between windows whose steal swings from 3 to 50 %, where the fast
// decile of whole jobs moves 11–34 %.
//
// maxPieces, when positive, first merges neighbouring segments into at most
// that many pieces of equal segment count. CPU time needs it: the kernel
// brings a running thread's clock up to date only about once a millisecond,
// so the CPU time of a 1 ms segment is mostly rounding.
func composite(segments [][]float64, maxPieces int) (float64, error) {
	n := len(segments[0])
	pieces := n
	if maxPieces > 0 && maxPieces < n {
		pieces = maxPieces
	}
	column := make([]float64, len(segments))
	total := 0.0
	for p := 0; p < pieces; p++ {
		lo, hi := p*n/pieces, (p+1)*n/pieces
		for i, segs := range segments {
			if len(segs) != n {
				return 0, fmt.Errorf("unit %d took %d marks, unit 0 took %d: units are not comparable", i, len(segs)+1, n+1)
			}
			column[i] = 0
			for _, d := range segs[lo:hi] {
				column[i] += d
			}
		}
		total += fastDecile(column)
	}
	return total, nil
}

func sorted(xs []float64) []float64 {
	if len(xs) == 0 {
		panic("benchmark: statistic of an empty sample")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// jiffies is the aggregate "cpu" line of /proc/stat.
type jiffies struct{ total, steal uint64 }

// parseProcStat extracts the aggregate cpu line: user nice system idle
// iowait irq softirq steal [guest guest_nice]. Guest time is already part
// of user time, so it is left out of the total.
func parseProcStat(text string) (jiffies, error) {
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || f[0] != "cpu" {
			continue
		}
		var j jiffies
		for i, s := range f[1:9] {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return jiffies{}, fmt.Errorf("/proc/stat field %d: %w", i+1, err)
			}
			j.total += v
			if i == 7 {
				j.steal = v
			}
		}
		return j, nil
	}
	return jiffies{}, fmt.Errorf("/proc/stat: no aggregate cpu line with a steal field")
}

// readJiffies samples /proc/stat; ok is false where the file is missing or
// unreadable (steal is then reported as 0).
func readJiffies() (j jiffies, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return jiffies{}, false
	}
	j, err = parseProcStat(string(b))
	return j, err == nil
}

// stealPct is the share of all jiffies between two samples that the
// hypervisor took from this VM.
func stealPct(a, b jiffies) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// parseVmHWM extracts the peak resident set size, in MiB, from the text of
// /proc/<pid>/status ("VmHWM:	  123456 kB").
func parseVmHWM(text string) (float64, error) {
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("VmHWM line %q: want \"<n> kB\"", line)
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM line %q: %w", line, err)
		}
		return float64(kb) / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM line")
}

func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

// memSample is the part of runtime.MemStats the runtime.* metrics difference.
type memSample struct {
	alloc   uint64
	gcs     uint32
	pauseNS uint64
}

func readMem() memSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSample{alloc: m.TotalAlloc, gcs: m.NumGC, pauseNS: m.PauseTotalNs}
}
