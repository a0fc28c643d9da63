package core_test

// Chaos suite for checkpointing, crash recovery and the fault-injection
// harness. The invariant under test throughout: a faulted run must produce
// BIT-IDENTICAL vertex values to a fault-free run of the same job — not
// merely close. All-in-All replication plus deterministic replay from a
// consistent checkpoint makes that exact equality achievable, so the tests
// compare with ==, never with a tolerance.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/compress"
	. "repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tile"
)

// chaosPartition builds the shared small graph and partition the chaos
// tests run PageRank over: ~8 tiles across 3 servers, so every server owns
// several tiles and every superstep has real cross-server traffic.
func chaosPartition(t *testing.T) *tile.Partition {
	t.Helper()
	el := graph.GenerateRMAT(graph.DefaultRMAT(), 300, 2400, 41)
	p, err := tile.Split(el, tile.Options{TileSize: el.NumEdges()/7 + 1})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// chaosConfig is the base configuration of the chaos runs: 3 servers,
// 6 supersteps of PageRank, checkpoints every 2 steps (taken after steps 1
// and 3; step 5 is the last, so never checkpointed), failure detector
// armed.
func chaosConfig(t *testing.T) Config {
	t.Helper()
	cfg := DefaultConfig(3)
	cfg.WorkDir = t.TempDir()
	cfg.MaxSupersteps = 6
	cfg.CheckpointEvery = 2
	cfg.FailureTimeout = 2 * time.Second
	return cfg
}

// chaosRun runs PageRank over p with the given config tweaks.
func chaosRun(t *testing.T, p *tile.Partition, mutate func(*Config)) *Result {
	t.Helper()
	cfg := chaosConfig(t)
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := New(cfg).Run(Input{Partition: p}, apps.PageRank{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// wantExact demands bit-identical vertex vectors.
func wantExact(t *testing.T, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: vertex %d = %.17g, want %.17g (bit-exact)", label, v, got[v], want[v])
		}
	}
}

func wantDead(t *testing.T, res *Result, label string, servers ...int) {
	t.Helper()
	if len(res.DeadServers) != len(servers) {
		t.Fatalf("%s: DeadServers = %v, want %v", label, res.DeadServers, servers)
	}
	for i, s := range servers {
		if res.DeadServers[i] != s {
			t.Fatalf("%s: DeadServers = %v, want %v", label, res.DeadServers, servers)
		}
	}
}

// TestRecoveryKeepsEveryStepRow: a kill-recovered serial job reports one
// row per superstep — Superstep 0…n−1, each exactly once, carrying the
// fault-free Updated series — and its Progress callback sees every
// superstep. The sweep kills either server at every step and kill point
// (rank 0 is the coordinator, so its death moves the role). The last case
// stalls rank 0 inside its step-3 checkpoint write until the others accuse
// it: they fail at the checkpoint's exit barrier holding step 3's
// checkpoint, so the restore point is the step that failed and its row
// must survive the recovery.
func TestRecoveryKeepsEveryStepRow(t *testing.T) {
	p := chaosPartition(t)
	want := chaosRun(t, p, nil)
	type rowCase struct {
		name   string
		victim int
		fault  func(*Config)
	}
	var cases []rowCase
	for _, victim := range []int{0, 1} {
		for ks := 0; ks < want.Supersteps; ks++ {
			for _, point := range []KillPoint{KillAtStepStart, KillMidStep, KillAtBarrier} {
				kill := Kill{Server: victim, Step: ks, Point: point}
				cases = append(cases, rowCase{
					name:   fmt.Sprintf("victim=%d/kill=%d/point=%d", victim, ks, point),
					victim: victim,
					fault:  func(c *Config) { c.Faults = &FaultPlan{Kills: []Kill{kill}} },
				})
			}
		}
	}
	cases = append(cases, rowCase{
		name:   "stalled-checkpoint",
		victim: 0,
		fault: func(c *Config) {
			c.FailureTimeout = 500 * time.Millisecond
			c.DiskFailureHook = func(server int, op, name string) error {
				if server == 0 && op == "write" && name == "ckpt/00000003" {
					time.Sleep(4 * c.FailureTimeout)
				}
				return nil
			}
		},
	})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := chaosConfig(t)
			tc.fault(&cfg)
			se, err := Open(Input{Partition: p}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer se.Close()
			var mu sync.Mutex
			reported := make(map[int]int)
			res, err := se.Submit(context.Background(), apps.PageRank{}, JobOptions{
				Progress: func(st StepStats) {
					mu.Lock()
					reported[st.Superstep]++
					mu.Unlock()
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			wantExact(t, res.Values, want.Values, tc.name)
			wantDead(t, res, tc.name, tc.victim)
			if res.Supersteps != want.Supersteps || len(res.Steps) != res.Supersteps {
				t.Fatalf("%s: Supersteps = %d with %d rows, want %d", tc.name, res.Supersteps, len(res.Steps), want.Supersteps)
			}
			for i, st := range res.Steps {
				if st.Superstep != i {
					t.Fatalf("%s: row %d is superstep %d", tc.name, i, st.Superstep)
				}
				if st.Updated != want.Steps[i].Updated {
					t.Fatalf("%s: step %d Updated = %d, fault-free %d", tc.name, i, st.Updated, want.Steps[i].Updated)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			for i := 0; i < res.Supersteps; i++ {
				if reported[i] == 0 {
					t.Fatalf("%s: Progress never saw superstep %d (saw %v)", tc.name, i, reported)
				}
			}
		})
	}
}

// TestCrashRecoverySweep kills server 1 at every superstep of a 6-step
// PageRank — rotating the kill point through step-start, mid-step and
// at-barrier — and requires the survivors to finish with values
// bit-identical to the fault-free run. Kills at steps 0 and 1 hit before
// the first checkpoint exists, exercising the restart-from-scratch path;
// later kills restore from the newest common checkpoint and replay.
func TestCrashRecoverySweep(t *testing.T) {
	p := chaosPartition(t)
	want := chaosRun(t, p, nil)
	wantDead(t, want, "baseline")

	for ks := 0; ks < 6; ks++ {
		kill := Kill{Server: 1, Step: ks, Point: KillPoint(ks % 3)}
		name := fmt.Sprintf("%s/step=%d/point=%d", pipelinedCase, ks, kill.Point)
		t.Run(name, func(t *testing.T) {
			res := chaosRun(t, p, func(c *Config) {
				c.Faults = &FaultPlan{Kills: []Kill{kill}}
			})
			wantExact(t, res.Values, want.Values, name)
			wantDead(t, res, name, 1)
			if res.Supersteps != want.Supersteps {
				t.Fatalf("%s: ran %d supersteps, want %d", name, res.Supersteps, want.Supersteps)
			}
			var recoveries int
			for _, sv := range res.Servers {
				recoveries += sv.Recoveries
			}
			if recoveries == 0 {
				t.Fatalf("%s: no survivor recorded a recovery round", name)
			}
		})
	}
}

// TestCrashRecoveryTCP repeats a subset of the crash sweep over real
// loopback TCP sockets and compares against the Inproc baseline — the
// recovered values must be bit-identical across transports too.
func TestCrashRecoveryTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP chaos runs are slow")
	}
	p := chaosPartition(t)
	want := chaosRun(t, p, nil) // Inproc baseline

	for _, tc := range []struct {
		ks    int
		point KillPoint
	}{
		{1, KillMidStep},
		{4, KillAtBarrier},
		{2, KillAtStepStart},
	} {
		name := fmt.Sprintf("tcp/%s/step=%d/point=%d", pipelinedCase, tc.ks, tc.point)
		t.Run(name, func(t *testing.T) {
			res := chaosRun(t, p, func(c *Config) {
				c.Transport = cluster.TCP
				c.Faults = &FaultPlan{Kills: []Kill{{Server: 1, Step: tc.ks, Point: tc.point}}}
			})
			wantExact(t, res.Values, want.Values, name)
			wantDead(t, res, name, 1)
		})
	}
}

// TestHangRecovery makes the victim hang — stop participating without
// declaring itself dead — so the survivors must detect it by
// FailureTimeout rather than be told about it.
func TestHangRecovery(t *testing.T) {
	p := chaosPartition(t)
	want := chaosRun(t, p, nil)

	for _, ks := range []int{0, 2, 4} {
		kill := Kill{Server: 1, Step: ks, Point: KillPoint(ks % 3), Hang: true}
		name := fmt.Sprintf("hang/step=%d/point=%d", ks, kill.Point)
		t.Run(name, func(t *testing.T) {
			res := chaosRun(t, p, func(c *Config) {
				c.FailureTimeout = time.Second
				c.Faults = &FaultPlan{Kills: []Kill{kill}}
			})
			wantExact(t, res.Values, want.Values, name)
			wantDead(t, res, name, 1)
		})
	}
}

// chaosGrid is the SSSP input of the wire-fault cases: a weighted 32×32
// road grid whose tiles are wide enough that no step's wavefront changes a
// fifth of one, so every tile batch is sparse and every frame on a link is
// an end-of-step frame.
func chaosGrid(t *testing.T) *tile.Partition {
	t.Helper()
	_, p := roadGrid(t, 32, 512)
	return p
}

// ssspChaosRun runs SSSP to convergence over p on the chaos configuration
// with the given tweaks.
func ssspChaosRun(t *testing.T, p *tile.Partition, mutate func(*Config)) *Result {
	t.Helper()
	cfg := chaosConfig(t)
	cfg.MaxSupersteps = 1000
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := New(cfg).Run(Input{Partition: p}, apps.SSSP{Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// ssspChaosBaseline is the fault-free SSSP run the wire-fault cases compare
// against. It fails unless every frame of the run was an end-of-step frame.
func ssspChaosBaseline(t *testing.T, p *tile.Partition) *Result {
	t.Helper()
	want := ssspChaosRun(t, p, nil)
	for _, st := range want.Steps {
		if st.DenseMsgs != 0 {
			t.Fatalf("baseline step %d streamed %d tile frames; the case wants end-of-step frames only", st.Superstep, st.DenseMsgs)
		}
	}
	return want
}

// TestWireDuplicateTolerated injects duplicated frames on several links.
// The counted receive protocol dedupes tile frames by tile and a peer's
// second end-of-step frame by sender, and the step-tagged frame header
// discards a copy that straddles a step boundary, so nobody dies and the
// values stay bit-identical. PageRank duplicates streamed tile frames; on
// the SSSP grid every duplicated frame is an end-of-step frame. Both run
// with the default codec (raw on this unmodelled link) and with snappy
// forced, so compressed frames stay covered.
func TestWireDuplicateTolerated(t *testing.T) {
	plan := &FaultPlan{Wire: []WireFault{
		{From: 0, To: 1, Frame: 0, Action: cluster.WireDuplicate},
		{From: 1, To: -1, Frame: 2, Action: cluster.WireDuplicate},
		{From: 2, To: 0, Frame: 5, Action: cluster.WireDuplicate},
	}}
	for _, codec := range wireCodecs {
		t.Run("dup"+codec.suffix+"/"+pipelinedCase, func(t *testing.T) {
			p := chaosPartition(t)
			want := chaosRun(t, p, nil)
			res := chaosRun(t, p, func(c *Config) { codec.set(c); c.Faults = plan })
			wantExact(t, res.Values, want.Values, "dup")
			wantDead(t, res, "dup") // nobody dies
		})
		t.Run("dup-end-frames"+codec.suffix+"/"+pipelinedCase, func(t *testing.T) {
			p := chaosGrid(t)
			want := ssspChaosBaseline(t, p)
			res := ssspChaosRun(t, p, func(c *Config) { codec.set(c); c.Faults = plan })
			wantExact(t, res.Values, want.Values, "dup-end-frames")
			wantDead(t, res, "dup-end-frames")
		})
	}
}

// wireCodecs are the codecs the wire-fault cases run under. The default
// (the cost model's choice, raw on this unmodelled link) keeps each case's
// original name, and forced snappy adds a "-snappy" suffix.
var wireCodecs = []struct {
	suffix string
	set    func(*Config)
}{
	{"", func(*Config) {}},
	{"-snappy", forceSnappy},
}

// forceSnappy compresses every update frame of a run.
func forceSnappy(c *Config) {
	m := compress.Snappy
	c.MsgCodec = &m
}

// TestWireDropRecovered drops one frame on the 0→1 link. The counted
// receive protocol turns the loss into a death: either receiver 1 times
// out and (falsely) accuses sender 0, which then fences itself, or the
// peers waiting at the barrier accuse stalled receiver 1 first — the race
// between the two detectors is timing, and under fail-stop semantics both
// outcomes are correct. Whoever dies, the survivors must recover and
// produce bit-identical values. In the PageRank case the lost frame is a
// streamed tile frame whose end-of-step frame still arrives, announcing one
// frame more than receiver 1 got; on the SSSP grid it is the end-of-step
// frame itself.
func TestWireDropRecovered(t *testing.T) {
	drop := func(c *Config) {
		c.FailureTimeout = time.Second
		c.Faults = &FaultPlan{Wire: []WireFault{
			{From: 0, To: 1, Frame: 2, Action: cluster.WireDrop},
		}}
	}
	wantOneRound := func(t *testing.T, res *Result, label string) {
		t.Helper()
		if len(res.DeadServers) < 1 || len(res.DeadServers) > 2 {
			t.Fatalf("%s: DeadServers = %v, want exactly one accusation round (1 or 2 deaths)", label, res.DeadServers)
		}
	}

	p := chaosPartition(t)
	want := chaosRun(t, p, nil)
	// Server 0 owns three tiles; with every step-0 batch dense, frame 2 on
	// its link to 1 is its third streamed tile frame, not the end frame.
	if got := want.Steps[0].DenseMsgs; got != p.NumTiles() {
		t.Fatalf("baseline step 0 streamed %d tile frames, want all %d", got, p.NumTiles())
	}
	res := chaosRun(t, p, drop)
	wantExact(t, res.Values, want.Values, "wire-drop")
	wantOneRound(t, res, "wire-drop")

	t.Run("snappy", func(t *testing.T) {
		res := chaosRun(t, p, func(c *Config) { drop(c); forceSnappy(c) })
		wantExact(t, res.Values, want.Values, "wire-drop-snappy")
		wantOneRound(t, res, "wire-drop-snappy")
	})
	for _, codec := range wireCodecs {
		t.Run("end-frame"+codec.suffix, func(t *testing.T) {
			p := chaosGrid(t)
			want := ssspChaosBaseline(t, p)
			res := ssspChaosRun(t, p, func(c *Config) { drop(c); codec.set(c) })
			wantExact(t, res.Values, want.Values, "wire-drop-end-frame"+codec.suffix)
			wantOneRound(t, res, "wire-drop-end-frame"+codec.suffix)
		})
	}
}

// TestSessionRecoversThenRunsNextJob proves a session survives a mid-job
// crash: job 1 loses a server and recovers bit-identically, then job 2
// runs on the surviving membership — the dead server's job loop has become
// a zombie that consumes submissions without contributing — and is also
// bit-identical to the fault-free baseline.
func TestSessionRecoversThenRunsNextJob(t *testing.T) {
	p := chaosPartition(t)
	want := chaosRun(t, p, nil)

	cfg := chaosConfig(t)
	cfg.Faults = &FaultPlan{Kills: []Kill{{Server: 1, Step: 2, Point: KillMidStep}}}
	se, err := Open(Input{Partition: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()

	res1, err := se.Submit(context.Background(), apps.PageRank{}, JobOptions{})
	if err != nil {
		t.Fatalf("job 1 (with kill): %v", err)
	}
	wantExact(t, res1.Values, want.Values, "job1")
	wantDead(t, res1, "job1", 1)

	res2, err := se.Submit(context.Background(), apps.PageRank{}, JobOptions{})
	if err != nil {
		t.Fatalf("job 2 (on survivors): %v", err)
	}
	wantExact(t, res2.Values, want.Values, "job2")
	wantDead(t, res2, "job2", 1) // still dead; no resurrection

	if err := se.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestErrSessionDead checks the typed fail-fast error: a hard (non-crash)
// fault kills the session, the failing Submit carries the injected cause,
// and every later Submit matches both ErrSessionDead and the original
// cause through the wrapped chain.
func TestErrSessionDead(t *testing.T) {
	p := chaosPartition(t)
	cfg := DefaultConfig(2)
	cfg.WorkDir = t.TempDir()
	cfg.MaxSupersteps = 6
	cfg.CacheCapacity = -1 // force tile reads every step so the disk fault fires
	cfg.PrefetchDepth = -1 // fault must hit a demand read: a failed prefetch is retried, not fatal
	cfg.Faults = &FaultPlan{Disk: []DiskFault{{Server: 0, Op: "read", AfterOps: 4}}}
	se, err := Open(Input{Partition: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()

	_, err = se.Submit(context.Background(), apps.PageRank{}, JobOptions{})
	if !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("first Submit: got %v, want the injected disk fault", err)
	}
	if errors.Is(err, ErrSessionDead) {
		t.Fatalf("first Submit must carry the original error, not the fail-fast wrapper: %v", err)
	}

	_, err = se.Submit(context.Background(), apps.PageRank{}, JobOptions{})
	if !errors.Is(err, ErrSessionDead) {
		t.Fatalf("second Submit: got %v, want ErrSessionDead", err)
	}
	if !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("second Submit lost the root cause: %v", err)
	}
	if err := se.Close(); err != nil {
		t.Fatalf("Close after death must not re-report: %v", err)
	}
}

// TestAllServersDie kills every server: with no survivor to fill the
// result, Submit must report the total loss and the session must be dead.
func TestAllServersDie(t *testing.T) {
	p := chaosPartition(t)
	cfg := DefaultConfig(2)
	cfg.WorkDir = t.TempDir()
	cfg.MaxSupersteps = 6
	cfg.CheckpointEvery = 2
	cfg.FailureTimeout = time.Second
	cfg.Faults = &FaultPlan{Kills: []Kill{
		{Server: 0, Step: 1, Point: KillAtStepStart},
		{Server: 1, Step: 1, Point: KillAtBarrier},
	}}
	se, err := Open(Input{Partition: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()

	if _, err := se.Submit(context.Background(), apps.PageRank{}, JobOptions{}); err == nil {
		t.Fatal("Submit succeeded with every server dead")
	}
	if _, err := se.Submit(context.Background(), apps.PageRank{}, JobOptions{}); !errors.Is(err, ErrSessionDead) {
		t.Fatalf("session with no servers left must be dead, got: %v", err)
	}
	if err := se.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestCheckpointRequiresAllInAll: recovery restores each survivor from its
// own full-vector checkpoint, which only exists under All-in-All
// replication — both the Config knob and the per-job override must refuse
// On-Demand.
func TestCheckpointRequiresAllInAll(t *testing.T) {
	p := chaosPartition(t)
	cfg := DefaultConfig(2)
	cfg.WorkDir = t.TempDir()
	cfg.Replication = OnDemand
	cfg.CheckpointEvery = 2
	if _, err := Open(Input{Partition: p}, cfg); err == nil {
		t.Fatal("Open accepted CheckpointEvery with On-Demand replication")
	}

	cfg.CheckpointEvery = 0
	cfg.WorkDir = t.TempDir()
	se, err := Open(Input{Partition: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	if _, err := se.Submit(context.Background(), apps.PageRank{}, JobOptions{CheckpointEvery: 2}); err == nil {
		t.Fatal("Submit accepted a per-job CheckpointEvery with On-Demand replication")
	}
	// The rejection is argument validation, not a job failure: the session
	// must still be healthy.
	if _, err := se.Submit(context.Background(), apps.PageRank{}, JobOptions{MaxSupersteps: 3}); err != nil {
		t.Fatalf("session died from a rejected JobOptions: %v", err)
	}
}

// TestCheckpointRetentionGC runs with CheckpointEvery=1 for 8 supersteps —
// 7 checkpoints taken — and verifies each server's store retains at most
// the last two blobs.
func TestCheckpointRetentionGC(t *testing.T) {
	p := chaosPartition(t)
	wd := t.TempDir()
	cfg := DefaultConfig(2)
	cfg.WorkDir = wd
	cfg.MaxSupersteps = 8
	cfg.CheckpointEvery = 1
	res, err := New(cfg).Run(Input{Partition: p}, apps.PageRank{})
	if err != nil {
		t.Fatal(err)
	}
	var wrote int
	for _, sv := range res.Servers {
		wrote += sv.Checkpoints
		if sv.CheckpointBytes <= 0 && sv.Checkpoints > 0 {
			t.Fatalf("server %d wrote %d checkpoints but reported %d bytes", sv.Server, sv.Checkpoints, sv.CheckpointBytes)
		}
	}
	if wrote != 2*7 { // 2 servers × checkpoints after steps 0..6 (7 is the last step)
		t.Fatalf("cluster wrote %d checkpoints, want 14", wrote)
	}
	for server := 0; server < 2; server++ {
		blobs, err := filepath.Glob(filepath.Join(wd, fmt.Sprintf("server-%d", server), "ckpt", "*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(blobs) > 2 {
			t.Fatalf("server %d retains %d checkpoint blobs, want at most 2: %v", server, len(blobs), blobs)
		}
		if len(blobs) == 0 {
			t.Fatalf("server %d retains no checkpoint blobs at all", server)
		}
	}
}
