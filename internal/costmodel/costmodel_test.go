package costmodel

import (
	"math"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/graph"
)

func TestEtaMatchesPaperFootnote(t *testing.T) {
	// Footnote 3: EU-2015 (davg = 85.7), 9 nodes × 24 workers = 216
	// workers → η expected ≈ 0.82.
	eta := Eta(85.7, 216)
	if math.Abs(eta-0.82) > 0.02 {
		t.Fatalf("η = %.4f, paper expects ≈0.82", eta)
	}
	if Eta(0, 10) != 1 || Eta(10, 0) != 1 {
		t.Fatal("degenerate inputs should give η=1")
	}
	// η decreases as workers shrink (more combining per worker).
	if !(Eta(85.7, 9) < Eta(85.7, 216)) {
		t.Fatal("η must shrink with fewer workers")
	}
}

func TestReplicationFactorBounds(t *testing.T) {
	el := graph.GenerateRMAT(graph.DefaultRMAT(), 2000, 30_000, 3)
	in, out := el.Degrees()
	for _, n := range []int{1, 2, 4, 9, 16} {
		m := ReplicationFactor(in, out, n)
		if m < 1 || m > float64(n) {
			t.Fatalf("N=%d: M=%g out of [1,N]", n, m)
		}
	}
	if ReplicationFactor(in, out, 9) <= ReplicationFactor(in, out, 3) {
		t.Fatal("M must grow with N")
	}
}

func TestFigure6aShape(t *testing.T) {
	// Figure 6(a): for the paper-scale graphs, All-in-All beats On-Demand
	// in small clusters; the crossover sits beyond ~16 servers and grows
	// with density (EU-2015 crosses last).
	for _, d := range graph.BenchmarkDatasets {
		g := Params(d.PaperVertices, d.PaperEdges)
		aa := AAMemoryPerServer(g)
		odSmall := ODMemoryPerServer(g, 4)
		if aa >= odSmall {
			t.Fatalf("%s: AA (%.3g) not below OD (%.3g) at N=4", d.PaperName, aa, odSmall)
		}
		cross := CrossoverServers(g, 256)
		if cross < 16 {
			t.Fatalf("%s: crossover at N=%d, paper's figure shows ≥16", d.PaperName, cross)
		}
	}
	twitter := Params(42_000_000, 1_500_000_000)
	eu := Params(1_100_000_000, 91_800_000_000)
	if !(CrossoverServers(twitter, 512) < CrossoverServers(eu, 512)) {
		t.Fatal("denser graphs must cross over later")
	}
}

func TestODMembersMonotone(t *testing.T) {
	g := Params(1_000_000, 40_000_000)
	prev := math.Inf(1)
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		m := ExpectedODMembers(g, n)
		if m > float64(g.V)+1 {
			t.Fatalf("N=%d: expected members %.0f exceeds |V|", n, m)
		}
		if m > prev {
			t.Fatalf("N=%d: OD members grew with cluster size", n)
		}
		prev = m
	}
}

func TestTableIIIOrdering(t *testing.T) {
	g := Params(134_000_000, 5_500_000_000) // UK-2007
	rows := TableIII(TableIIIInputs{Graph: g, N: 9, P: 270, W: 216, Beta: 0.2})
	byName := map[string]SystemCost{}
	for _, r := range rows {
		byName[r.System] = r
	}
	if len(byName) != 5 {
		t.Fatalf("want 5 systems, got %d", len(byName))
	}
	pregel, graphd := byName["Pregel+"], byName["GraphD"]
	powergraph, chaos, graphh := byName["PowerGraph"], byName["Chaos"], byName["GraphH"]

	// In-memory systems hold edges in RAM; out-of-core systems do not.
	if pregel.RAMEdge == 0 || powergraph.RAMEdge == 0 {
		t.Fatal("in-memory systems must budget edge RAM")
	}
	if graphd.RAMEdge != 0 || chaos.RAMEdge != 0 {
		t.Fatal("out-of-core systems must not budget edge RAM")
	}
	// PowerGraph stores each edge twice.
	if powergraph.RAMEdge != 2*pregel.RAMEdge {
		t.Fatal("PowerGraph edge RAM must be 2x Pregel+'s")
	}
	// Disk: only GraphD, Chaos and (β-scaled) GraphH read disk; only the
	// out-of-core systems write.
	if pregel.DiskRead != 0 || powergraph.DiskRead != 0 {
		t.Fatal("in-memory systems must not read disk")
	}
	if graphd.DiskWrite == 0 || chaos.DiskWrite == 0 || graphh.DiskWrite != 0 {
		t.Fatal("disk write profile wrong")
	}
	// Chaos moves everything over the network: most traffic of all.
	for _, r := range rows {
		if r.System != "Chaos" && r.Network >= chaos.Network {
			t.Fatalf("%s network %.3g ≥ Chaos %.3g", r.System, r.Network, chaos.Network)
		}
	}
	// GraphH's disk reads scale with β.
	zero := TableIII(TableIIIInputs{Graph: g, N: 9, P: 270, W: 216, Beta: 0})
	for _, r := range zero {
		if r.System == "GraphH" && r.DiskRead != 0 {
			t.Fatal("β=0 must eliminate GraphH disk reads")
		}
	}
}

func TestMeasuredMultiplier(t *testing.T) {
	if m, ok := MeasuredMultiplier("Giraph"); !ok || m != 8.5 {
		t.Fatal("Giraph multiplier wrong")
	}
	if m, ok := MeasuredMultiplier("GraphX"); !ok || m != 7.3 {
		t.Fatal("GraphX multiplier wrong")
	}
	if _, ok := MeasuredMultiplier("GraphH"); ok {
		t.Fatal("implemented systems must not be modelled")
	}
}

func TestParams(t *testing.T) {
	p := Params(10, 50)
	if p.AvgDeg != 5 {
		t.Fatalf("avg degree %g", p.AvgDeg)
	}
	if Params(0, 0).AvgDeg != 0 {
		t.Fatal("empty graph avg degree")
	}
}

func TestCyclicHitRatio(t *testing.T) {
	if r := CyclicHitRatio(100, 100); r != 1 {
		t.Fatalf("full capacity ratio %g, want 1", r)
	}
	if r := CyclicHitRatio(100, 50); r != 0.5 {
		t.Fatalf("half capacity ratio %g, want 0.5", r)
	}
	if r := CyclicHitRatio(100, 0); r != 0 {
		t.Fatalf("no capacity ratio %g, want 0", r)
	}
	if r := CyclicHitRatio(0, 0); r != 1 {
		t.Fatalf("empty working set ratio %g, want 1", r)
	}
}

func TestSelectClockPolicy(t *testing.T) {
	if !SelectClockPolicy(100, 50) {
		t.Fatal("constrained capacity must select CLOCK")
	}
	if SelectClockPolicy(100, 100) {
		t.Fatal("sufficient capacity must keep the paper's admit-no-evict")
	}
	if SelectClockPolicy(100, 0) {
		t.Fatal("a disabled cache needs no eviction policy")
	}
	if SelectClockPolicy(100, -1) {
		t.Fatal("negative capacity means disabled")
	}
}

// TestSelectMsgCodec pins the update-frame codec decision where
// measurements agree with it (PERF.md, "Message compression only where the
// link pays"). It leaves 1 Gbps × 4 servers unpinned: the model picks
// snappy there, but uk2007-sim PageRank's snappy and raw times overlap,
// because a broadcast overlaps the next tiles' compute, which the model
// leaves out. Pinning either answer would pin a guess.
func TestSelectMsgCodec(t *testing.T) {
	const (
		gbps1  = 125_000_000   // 1 Gbps in bytes/s
		gbps10 = 1_250_000_000 // 10 Gbps
	)
	type codecCase struct {
		n    int
		bw   int64
		want compress.Mode
	}
	cases := []codecCase{
		{1, gbps1, compress.None},
		{2, gbps1, compress.None},
		{8, gbps1, compress.Snappy},
	}
	for n := 2; n <= 8; n++ {
		cases = append(cases, codecCase{n, 0, compress.None}, codecCase{n, gbps10, compress.None})
	}
	for _, c := range cases {
		if got := SelectMsgCodec(c.n, c.bw); got != c.want {
			t.Errorf("SelectMsgCodec(%d servers, %d B/s) = %v, want %v", c.n, c.bw, got, c.want)
		}
	}
}

func TestAdaptQueueCap(t *testing.T) {
	if got := AdaptQueueCap(32, 5, 32, 0); got != 64 {
		t.Fatalf("stalls at cap 32 → %d, want 64", got)
	}
	if got := AdaptQueueCap(MaxQueueCap, 100, 0, 0); got != MaxQueueCap {
		t.Fatalf("growth exceeded MaxQueueCap: %d", got)
	}
	if got := AdaptQueueCap(64, 0, 10, 8); got != 32 {
		t.Fatalf("sustained quiet at cap 64 → %d, want 32", got)
	}
	if got := AdaptQueueCap(MinQueueCap, 0, 0, 100); got != MinQueueCap {
		t.Fatalf("shrink went below MinQueueCap: %d", got)
	}
	if got := AdaptQueueCap(64, 0, 60, 8); got != 64 {
		t.Fatalf("deep high-water shrank the queue: %d", got)
	}
	if got := AdaptQueueCap(64, 0, 10, 1); got != 64 {
		t.Fatalf("brief quiet shrank the queue: %d", got)
	}
}

func TestYoungInterval(t *testing.T) {
	// Young's formula: τ = sqrt(2·C·MTBF). With C = 2s and MTBF = 1h the
	// optimal interval is sqrt(2·2·3600) s = 120s.
	tau := YoungInterval(2*time.Second, time.Hour)
	want := 120 * time.Second
	if diff := tau - want; diff < -time.Second || diff > time.Second {
		t.Fatalf("YoungInterval(2s, 1h) = %v, want ≈%v", tau, want)
	}
	// τ grows with both inputs.
	if YoungInterval(8*time.Second, time.Hour) <= tau {
		t.Fatal("τ must grow with checkpoint cost")
	}
	if YoungInterval(2*time.Second, 4*time.Hour) <= tau {
		t.Fatal("τ must grow with MTBF")
	}
	// No failure model or free checkpoints → checkpointing disabled.
	for _, tc := range [][2]time.Duration{{0, time.Hour}, {time.Second, 0}, {-1, time.Hour}, {time.Second, -1}} {
		if got := YoungInterval(tc[0], tc[1]); got != 0 {
			t.Fatalf("YoungInterval(%v, %v) = %v, want 0", tc[0], tc[1], got)
		}
	}
}

func TestCheckpointEverySteps(t *testing.T) {
	// τ = 120s (from the case above); 50s supersteps → round(2.4) = 2.
	if k := CheckpointEverySteps(50*time.Second, 2*time.Second, time.Hour); k != 2 {
		t.Fatalf("CheckpointEverySteps(50s, 2s, 1h) = %d, want 2", k)
	}
	// Supersteps longer than τ still checkpoint every step, never 0.
	if k := CheckpointEverySteps(10*time.Minute, 2*time.Second, time.Hour); k != 1 {
		t.Fatalf("long steps must clamp to every-step checkpointing, got %d", k)
	}
	// Disabled when the failure model or the step cost is degenerate.
	if k := CheckpointEverySteps(0, 2*time.Second, time.Hour); k != 0 {
		t.Fatalf("zero step cost must disable, got %d", k)
	}
	if k := CheckpointEverySteps(50*time.Second, 0, time.Hour); k != 0 {
		t.Fatalf("free checkpoints must disable, got %d", k)
	}
	if k := CheckpointEverySteps(50*time.Second, 2*time.Second, 0); k != 0 {
		t.Fatalf("no failure model must disable, got %d", k)
	}
}

func TestSelectResidency(t *testing.T) {
	const ws = 8 << 30 // 8 GiB working set
	if got := SelectResidency(ws, 0); got != ResidencyStreaming {
		t.Fatalf("no cache at all must stream, got %v", got)
	}
	if got := SelectResidency(ws, -1); got != ResidencyStreaming {
		t.Fatalf("negative capacity must stream, got %v", got)
	}
	// Exactly at the crossover (1/8 of the working set) → streaming; one
	// byte above → cached.
	if got := SelectResidency(ws, ws/StreamingCrossover); got != ResidencyStreaming {
		t.Fatalf("budget at 1/%d of working set must stream, got %v", StreamingCrossover, got)
	}
	if got := SelectResidency(ws, ws/StreamingCrossover+1); got != ResidencyCached {
		t.Fatalf("budget above the crossover must stay cached, got %v", got)
	}
	if got := SelectResidency(ws, ws); got != ResidencyCached {
		t.Fatalf("full-residency budget must stay cached, got %v", got)
	}
	if got := SelectResidency(0, 1); got != ResidencyCached {
		t.Fatalf("empty working set with any cache must stay cached, got %v", got)
	}
	// Regression: an effectively unlimited capacity (MaxInt64, the engine's
	// encoding of "no limit") must not overflow the crossover comparison
	// into a negative product and misclassify the session as streaming.
	if got := SelectResidency(ws, math.MaxInt64); got != ResidencyCached {
		t.Fatalf("unlimited capacity must stay cached, got %v", got)
	}
	if ResidencyCached.String() != "cached" || ResidencyStreaming.String() != "streaming" {
		t.Fatalf("residency names: %v / %v", ResidencyCached, ResidencyStreaming)
	}
}

func TestPrefetchDepth(t *testing.T) {
	const ws = 1 << 30
	// Full residency: nothing to prefetch.
	if got := PrefetchDepth(ws, ws, 4); got != 0 {
		t.Fatalf("full-residency depth = %d, want 0", got)
	}
	if got := PrefetchDepth(0, 0, 4); got != 0 {
		t.Fatalf("empty working set depth = %d, want 0", got)
	}
	// All-miss streaming sweep wants the full window.
	if got := PrefetchDepth(ws, 0, 1); got != MaxPrefetchDepth {
		t.Fatalf("all-miss depth = %d, want %d", got, MaxPrefetchDepth)
	}
	// A 50%-hit sweep wants roughly half the window.
	if got := PrefetchDepth(ws, ws/2, 1); got != MaxPrefetchDepth/2 {
		t.Fatalf("half-miss depth = %d, want %d", got, MaxPrefetchDepth/2)
	}
	// Near-full residency still keeps two tiles per worker in flight.
	if got := PrefetchDepth(ws, ws-1, 3); got != 6 {
		t.Fatalf("near-hit depth with 3 workers = %d, want 6", got)
	}
	// Worker floor never exceeds the max window.
	if got := PrefetchDepth(ws, 0, 64); got != MaxPrefetchDepth {
		t.Fatalf("many-worker depth = %d, want clamp at %d", got, MaxPrefetchDepth)
	}
	if got := PrefetchDepth(ws, ws-1, 0); got != MinPrefetchDepth {
		t.Fatalf("degenerate worker count depth = %d, want %d", got, MinPrefetchDepth)
	}
}

func TestPrefetchIODepth(t *testing.T) {
	cases := []struct{ depth, batch, want int }{
		{0, 4, 1},   // no window still keeps one op slot
		{-3, 4, 1},  // degenerate
		{4, 4, 1},   // one full batch
		{5, 4, 2},   // ceil
		{16, 4, 4},  // full window
		{64, 4, 4},  // clamped
		{3, 0, 3},   // degenerate batch size treated as 1
		{100, 1, 4}, // clamped
	}
	for _, c := range cases {
		if got := PrefetchIODepth(c.depth, c.batch); got != c.want {
			t.Fatalf("PrefetchIODepth(%d, %d) = %d, want %d", c.depth, c.batch, got, c.want)
		}
	}
}
