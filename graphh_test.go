package graphh_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	graphh "repro"
	"repro/internal/graph"
)

func TestQuickstartFlow(t *testing.T) {
	g := graphh.GenerateRMAT(500, 5000, 42)
	p, err := graphh.Partition(g, graphh.PartitionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := graphh.Run(p, graphh.NewPageRank(), graphh.Options{
		Servers: 3, MaxSupersteps: 10, WorkDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := graph.RefPageRank(g, 10)
	for v := range want {
		if math.Abs(res.Values[v]-want[v]) > 1e-12 {
			t.Fatalf("vertex %d: %g vs %g", v, res.Values[v], want[v])
		}
	}
}

func TestRunGraphConvenience(t *testing.T) {
	g := graphh.GenerateRMAT(200, 1500, 7)
	res, err := graphh.RunGraph(g, graphh.NewBFS(0), graphh.Options{MaxSupersteps: 200})
	if err != nil {
		t.Fatal(err)
	}
	want := graph.RefBFS(g, 0)
	for v := range want {
		if math.IsInf(want[v], 1) {
			if !math.IsInf(res.Values[v], 1) {
				t.Fatalf("vertex %d should be unreachable", v)
			}
			continue
		}
		if res.Values[v] != want[v] {
			t.Fatalf("vertex %d: %g vs %g", v, res.Values[v], want[v])
		}
	}
}

func TestGenerateDatasets(t *testing.T) {
	g, err := graphh.Generate("twitter-sim", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices == 0 || g.NumEdges() == 0 {
		t.Fatal("empty generated dataset")
	}
	if _, err := graphh.Generate("unknown", 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestLoadCSV(t *testing.T) {
	in := "# web graph\n0\t1\n1\t2\n2\t0\n"
	g, err := graphh.LoadCSV(strings.NewReader(in), "tiny")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 || g.NumVertices != 3 {
		t.Fatalf("parsed %d edges over %d vertices", g.NumEdges(), g.NumVertices)
	}
	res, err := graphh.RunGraph(g, graphh.NewPageRank(), graphh.Options{MaxSupersteps: 30})
	if err != nil {
		t.Fatal(err)
	}
	// Symmetric cycle: equal ranks summing to 1.
	var sum float64
	for _, r := range res.Values {
		sum += r
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("rank sum %g", sum)
	}
}

func TestLoadBinaryRoundTrip(t *testing.T) {
	g := graphh.GenerateRMAT(100, 700, 9)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := graphh.LoadBinary(&buf, "rt")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != g.NumEdges() {
		t.Fatal("binary round trip lost edges")
	}
}

func TestOptionKnobs(t *testing.T) {
	g := graphh.GenerateRMAT(300, 2500, 21)
	p, err := graphh.Partition(g, graphh.PartitionOptions{TileSize: 300})
	if err != nil {
		t.Fatal(err)
	}
	mode := graphh.CodecZlib1
	msg := graphh.CodecSnappy
	raw := graphh.CodecNone
	noEvict := graphh.CacheAdmitNoEvict
	clock := graphh.CacheClock
	// CacheCapacity is per server: with 2 servers each holds ~half the
	// tiles, so a quarter of the total puts every server at ~50% of its
	// working set and the eviction-policy variants actually evict/decline
	// rather than degenerating to "everything fits".
	tight := p.TotalTileBytes() / 4
	var base []float64
	for _, opt := range []graphh.Options{
		{Servers: 2, MaxSupersteps: 6},
		{Servers: 2, MaxSupersteps: 6, CacheMode: &mode, MessageCodec: &msg},
		{Servers: 2, MaxSupersteps: 6, ForceDense: true},
		{Servers: 2, MaxSupersteps: 6, ForceSparse: true},
		{Servers: 2, MaxSupersteps: 6, OnDemandReplication: true},
		{Servers: 2, MaxSupersteps: 6, DisableBloomSkip: true},
		{Servers: 2, MaxSupersteps: 6, CacheCapacity: -1},
		{Servers: 2, MaxSupersteps: 6, CacheCapacity: tight, CacheMode: &raw, CachePolicy: &noEvict},
		{Servers: 2, MaxSupersteps: 6, CacheCapacity: tight, CacheMode: &raw, CachePolicy: &clock},
	} {
		opt.WorkDir = t.TempDir()
		res, err := graphh.Run(p, graphh.NewPageRank(), opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		if base == nil {
			base = res.Values
			continue
		}
		for v := range base {
			if res.Values[v] != base[v] {
				t.Fatalf("option variant changed results at vertex %d", v)
			}
		}
	}
}

// TestMessageCodecFollowsLink pins the default message codec's cost-model
// decision end to end. With no link model (NetBandwidth 0) update frames go
// raw, so every step's wire bytes are its raw bytes plus frame headers; on
// a 1 Gbps NIC model with 8 servers the broadcast saves more wire time than
// snappy costs, so frames are compressed.
func TestMessageCodecFollowsLink(t *testing.T) {
	g := graphh.GenerateRMAT(2000, 16000, 5)
	p, err := graphh.Partition(g, graphh.PartitionOptions{TileSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts graphh.Options) []graphh.StepStats {
		t.Helper()
		opts.MaxSupersteps = 4
		opts.WorkDir = t.TempDir()
		res, err := graphh.Run(p, graphh.NewPageRank(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Steps
	}
	for _, st := range run(graphh.Options{Servers: 4}) {
		if st.RawBytes == 0 || st.WireBytes < st.RawBytes {
			t.Errorf("4 servers, no link model, step %d: wire %d B, raw %d B; want raw frames (wire >= raw > 0)",
				st.Superstep, st.WireBytes, st.RawBytes)
		}
	}
	for _, st := range run(graphh.Options{Servers: 8, NetBandwidth: 125e6}) {
		if st.WireBytes >= st.RawBytes {
			t.Errorf("8 servers at 1 Gbps, step %d: wire %d B, raw %d B; want compressed frames (wire < raw)",
				st.Superstep, st.WireBytes, st.RawBytes)
		}
	}
}

func TestSSSPWeighted(t *testing.T) {
	g := graphh.GenerateRMAT(200, 1500, 33)
	wg := graph.AttachWeights(g, 5, 11)
	res, err := graphh.RunGraph(wg, graphh.NewSSSP(0), graphh.Options{MaxSupersteps: 300})
	if err != nil {
		t.Fatal(err)
	}
	want := graph.RefSSSP(wg, 0)
	for v := range want {
		if math.IsInf(want[v], 1) != math.IsInf(res.Values[v], 1) {
			t.Fatalf("vertex %d reachability mismatch", v)
		}
		if !math.IsInf(want[v], 1) && math.Abs(res.Values[v]-want[v]) > 1e-9 {
			t.Fatalf("vertex %d: %g vs %g", v, res.Values[v], want[v])
		}
	}
}

func TestWCCOnSymmetrized(t *testing.T) {
	g := graphh.GenerateRMAT(150, 300, 5)
	res, err := graphh.RunGraph(g.Symmetrize(), graphh.NewWCC(), graphh.Options{MaxSupersteps: 300})
	if err != nil {
		t.Fatal(err)
	}
	want := graph.RefWCC(g)
	for v := range want {
		if uint32(res.Values[v]) != want[v] {
			t.Fatalf("vertex %d labelled %g, want %d", v, res.Values[v], want[v])
		}
	}
}

func TestNilPartition(t *testing.T) {
	if _, err := graphh.Run(nil, graphh.NewPageRank(), graphh.Options{}); err == nil {
		t.Fatal("nil partition accepted")
	}
}

func TestSessionMultiJob(t *testing.T) {
	g := graphh.GenerateRMAT(300, 2500, 33).Symmetrize()
	p, err := graphh.Partition(g, graphh.PartitionOptions{TileSize: 400})
	if err != nil {
		t.Fatal(err)
	}
	opts := graphh.Options{Servers: 2, MaxSupersteps: 12, WorkDir: t.TempDir()}
	s, err := graphh.Open(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Three different programs over one warm session, each checked against
	// the standalone Run path.
	for _, prog := range []graphh.Program{graphh.NewPageRank(), graphh.NewSSSP(0), graphh.NewWCC()} {
		got, err := s.Submit(context.Background(), prog, graphh.RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", prog.Name(), err)
		}
		ref := opts
		ref.WorkDir = t.TempDir()
		want, err := graphh.Run(p, prog, ref)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want.Values {
			if got.Values[v] != want.Values[v] {
				t.Fatalf("%s: session differs from Run at vertex %d", prog.Name(), v)
			}
		}
	}

	// Cancellation through the public API: cancel mid-job, then reuse.
	ctx, cancel := context.WithCancel(context.Background())
	steps := 0
	_, err = s.Submit(ctx, graphh.NewPageRank(), graphh.RunOptions{
		MaxSupersteps: 100,
		Progress: func(st graphh.StepStats) {
			steps++
			if st.Superstep == 1 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Submit returned %v", err)
	}
	if _, err := s.Submit(context.Background(), graphh.NewBFS(0), graphh.RunOptions{}); err != nil {
		t.Fatalf("Submit after cancel: %v", err)
	}
}

// TestCrashRecoveryPublicAPI drives the whole fault/recovery surface from
// the public package: a scripted kill plus checkpointing must yield values
// bit-identical to the fault-free run, and the dead server is reported.
func TestCrashRecoveryPublicAPI(t *testing.T) {
	g := graphh.GenerateRMAT(300, 2400, 42)
	p, err := graphh.Partition(g, graphh.PartitionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base := graphh.Options{
		Servers: 3, MaxSupersteps: 8, WorkDir: t.TempDir(),
		CheckpointEvery: 2, FailureTimeout: 2 * time.Second,
	}
	want, err := graphh.Run(p, graphh.NewPageRank(), base)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.DeadServers) != 0 {
		t.Fatalf("fault-free run lost servers: %v", want.DeadServers)
	}

	faulted := base
	faulted.WorkDir = t.TempDir()
	faulted.Faults = &graphh.FaultPlan{Kills: []graphh.Kill{
		{Server: 1, Step: 3, Point: graphh.KillMidStep},
	}}
	res, err := graphh.Run(p, graphh.NewPageRank(), faulted)
	if err != nil {
		t.Fatalf("faulted run: %v", err)
	}
	if len(res.DeadServers) != 1 || res.DeadServers[0] != 1 {
		t.Fatalf("DeadServers = %v, want [1]", res.DeadServers)
	}
	for v := range want.Values {
		if res.Values[v] != want.Values[v] {
			t.Fatalf("vertex %d: %.17g vs %.17g — recovery not bit-identical", v, res.Values[v], want.Values[v])
		}
	}
}

// TestErrSessionClosed pins the typed closed-session sentinel: Submits and
// Joins after Close must match errors.Is(err, graphh.ErrSessionClosed) —
// the graphhd daemon maps it onto HTTP 503, and it must stay distinct from
// ErrSessionDead (a crash) and ErrJobQueueFull (backpressure).
func TestErrSessionClosed(t *testing.T) {
	g := graphh.GenerateRMAT(100, 600, 11)
	p, err := graphh.Partition(g, graphh.PartitionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, conc := range []int{1, 2} { // serial and multi-tenant sessions
		s, err := graphh.Open(p, graphh.Options{
			Servers: 2, MaxSupersteps: 5, WorkDir: t.TempDir(), MaxConcurrentJobs: conc,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		_, err = s.Submit(context.Background(), graphh.NewPageRank(), graphh.RunOptions{})
		if !errors.Is(err, graphh.ErrSessionClosed) {
			t.Fatalf("conc=%d: Submit after Close = %v, want ErrSessionClosed", conc, err)
		}
		if err := s.Join(context.Background(), 0); !errors.Is(err, graphh.ErrSessionClosed) {
			t.Fatalf("conc=%d: Join after Close = %v, want ErrSessionClosed", conc, err)
		}
		if errors.Is(err, graphh.ErrSessionDead) || errors.Is(err, graphh.ErrJobQueueFull) {
			t.Fatalf("conc=%d: ErrSessionClosed must not alias the other sentinels", conc)
		}
	}
}
