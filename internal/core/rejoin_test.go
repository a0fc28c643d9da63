package core_test

// Elastic-membership chaos suite: a server killed mid-job rejoins the live
// session between jobs. The job it died in finishes on the survivors,
// BIT-IDENTICAL to the fault-free run and listing it as dead; the next job
// runs with it back as a live member owning its base tiles.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	. "repro/internal/core"
	"repro/internal/tile"
)

// rejoinTwoJobs opens a session with the chaos config plus the given
// tweaks and runs PageRank twice: job 1 carries the plan's kill and
// scripted rejoin, job 2 runs after the join has landed.
func rejoinTwoJobs(t *testing.T, p *tile.Partition, mutate func(*Config)) (job1, job2 *Result) {
	t.Helper()
	cfg := chaosConfig(t)
	mutate(&cfg)
	se, err := Open(Input{Partition: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	if job1, err = se.Submit(context.Background(), apps.PageRank{}, JobOptions{}); err != nil {
		t.Fatalf("job 1 (kill + rejoin): %v", err)
	}
	if job2, err = se.Submit(context.Background(), apps.PageRank{}, JobOptions{}); err != nil {
		t.Fatalf("job 2 (after the rejoin): %v", err)
	}
	return job1, job2
}

// wantRejoined checks the between-jobs contract for server 1: job 1 ends
// bit-identical without it, job 2 bit-identical with it back.
func wantRejoined(t *testing.T, job1, job2, want *Result, name string) {
	t.Helper()
	wantExact(t, job1.Values, want.Values, name+"/job1")
	wantDead(t, job1, name+"/job1", 1) // the join waited for the job to end
	if job1.Supersteps != want.Supersteps {
		t.Fatalf("%s/job1: ran %d supersteps, want %d", name, job1.Supersteps, want.Supersteps)
	}
	wantExact(t, job2.Values, want.Values, name+"/job2")
	wantDead(t, job2, name+"/job2") // capacity restored
	if got := job2.Servers[1].Joins; got != 1 {
		t.Fatalf("%s/job2: server 1 reports %d joins, want 1", name, got)
	}
	if got := job2.Servers[0].MembershipEpoch; got != 2 {
		t.Fatalf("%s/job2: membership epoch = %d, want 2 (one death + one join)", name, got)
	}
	if job2.Servers[1].VertexSlots == 0 {
		t.Fatalf("%s/job2: rejoined server 1 did not participate", name)
	}
}

// TestRejoinSweep kills server 1 at every superstep (rotating the kill
// point) and scripts its rejoin at the start of the following one. The job
// must finish bit-identical on the survivors with server 1 dead, and the
// next job bit-identical with server 1 back.
func TestRejoinSweep(t *testing.T) {
	p := chaosPartition(t)
	want := chaosRun(t, p, nil)
	wantDead(t, want, "baseline")

	for ks := 0; ks < 5; ks++ {
		kill := Kill{Server: 1, Step: ks, Point: KillPoint(ks % 3)}
		rejoin := Rejoin{Server: 1, Step: ks + 1}
		name := fmt.Sprintf("%s/kill=%d/rejoin=%d", pipelinedCase, ks, rejoin.Step)
		t.Run(name, func(t *testing.T) {
			job1, job2 := rejoinTwoJobs(t, p, func(c *Config) {
				c.Faults = &FaultPlan{
					Kills:   []Kill{kill},
					Rejoins: []Rejoin{rejoin},
				}
			})
			wantRejoined(t, job1, job2, want, name)
		})
	}
}

// TestRejoinTCP repeats a subset of the rejoin sweep over real loopback TCP
// sockets; the values must be bit-identical across transports.
func TestRejoinTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP chaos runs are slow")
	}
	p := chaosPartition(t)
	want := chaosRun(t, p, nil) // Inproc baseline

	for _, tc := range []struct {
		ks, rs int
		point  KillPoint
	}{
		{1, 2, KillMidStep},
		{3, 4, KillAtBarrier},
		{2, 3, KillAtStepStart},
	} {
		name := fmt.Sprintf("tcp/%s/kill=%d/rejoin=%d", pipelinedCase, tc.ks, tc.rs)
		t.Run(name, func(t *testing.T) {
			job1, job2 := rejoinTwoJobs(t, p, func(c *Config) {
				c.Transport = cluster.TCP
				c.Faults = &FaultPlan{
					Kills:   []Kill{{Server: 1, Step: tc.ks, Point: tc.point}},
					Rejoins: []Rejoin{{Server: 1, Step: tc.rs}},
				}
			})
			wantRejoined(t, job1, job2, want, name)
		})
	}
}

// TestSessionJoinWhileSerialJobRuns pins the serial join contract. With a
// job held mid-run on a membership that lost server 1, Join(1) returns only
// after that job, and lands before the Submit queued right behind it
// starts. A Join whose ctx is cancelled is abandoned: admission resumes and
// the next job runs without the server.
func TestSessionJoinWhileSerialJobRuns(t *testing.T) {
	p := chaosPartition(t)
	want := chaosRun(t, p, nil)
	open := func() *Session {
		cfg := chaosConfig(t)
		cfg.Faults = &FaultPlan{Kills: []Kill{{Server: 1, Step: 1, Point: KillMidStep}}}
		se, err := Open(Input{Partition: p}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return se
	}
	submit := func(se *Session) <-chan submitted {
		done := make(chan submitted, 1)
		go func() {
			res, err := se.Submit(context.Background(), apps.PageRank{}, JobOptions{})
			done <- submitted{res, err}
		}()
		return done
	}

	t.Run("lands-between-jobs", func(t *testing.T) {
		se := open()
		defer se.Close()
		held, release := holdJob(t, se)
		joined := make(chan error, 1)
		go func() { joined <- se.Join(context.Background(), 1) }()
		waitPaused(t, se)
		// Back to back: this Submit waits on the session lock and takes it
		// the moment the held job's Submit returns.
		next := submit(se)
		select {
		case err := <-joined:
			t.Fatalf("Join returned %v while a job was in flight", err)
		case <-time.After(150 * time.Millisecond):
		}
		release()
		h := <-held
		if h.err != nil {
			t.Fatalf("held job: %v", h.err)
		}
		wantExact(t, h.res.Values, want.Values, "held job")
		wantDead(t, h.res, "held job", 1)
		if err := <-joined; err != nil {
			t.Fatalf("Join: %v", err)
		}
		q := <-next
		if q.err != nil {
			t.Fatalf("job queued behind the Join: %v", q.err)
		}
		wantExact(t, q.res.Values, want.Values, "job after the Join")
		wantDead(t, q.res, "job after the Join")
		if got := q.res.Servers[1].Joins; got != 1 {
			t.Fatalf("server 1 reports %d joins, want 1", got)
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		se := open()
		defer se.Close()
		held, release := holdJob(t, se)
		ctx, cancel := context.WithCancel(context.Background())
		joined := make(chan error, 1)
		go func() { joined <- se.Join(ctx, 1) }()
		waitPaused(t, se)
		cancel()
		if err := <-joined; !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Join returned %v, want context.Canceled", err)
		}
		if se.AdmissionPaused() {
			t.Fatal("admission still paused after the Join was abandoned")
		}
		release()
		if h := <-held; h.err != nil {
			t.Fatalf("held job: %v", h.err)
		}
		q := <-submit(se)
		if q.err != nil {
			t.Fatalf("job after the abandoned Join: %v", q.err)
		}
		wantExact(t, q.res.Values, want.Values, "job after the abandoned Join")
		wantDead(t, q.res, "job after the abandoned Join", 1)
	})
}

// TestMultiJobRejoin pins the multi-tenant rejoin contract: a session with
// two jobs in flight admits a returning server only between jobs. Server 1
// dies at superstep 2 and its scripted rejoin fires at superstep 3; both
// in-flight jobs finish without it — bit-identical, listing it as dead —
// and the next Submit runs with server 1 a live member again.
func TestMultiJobRejoin(t *testing.T) {
	p := chaosPartition(t)
	progs := []Program{apps.PageRank{}, apps.PageRank{Damping: 0.8}}
	base := make([][]float64, len(progs))
	for i, prog := range progs {
		ref := chaosConfig(t)
		res, err := New(ref).Run(Input{Partition: p}, prog)
		if err != nil {
			t.Fatal(err)
		}
		base[i] = res.Values
	}

	transports := []cluster.TransportKind{cluster.Inproc}
	if !testing.Short() {
		transports = append(transports, cluster.TCP)
	}
	for _, tr := range transports {
		t.Run(fmt.Sprintf("transport=%v", tr), func(t *testing.T) {
			cfg := chaosConfig(t)
			cfg.Transport = tr
			cfg.MaxConcurrentJobs = 2
			cfg.Faults = &FaultPlan{
				Kills:   []Kill{{Server: 1, Step: 2, Point: KillMidStep}},
				Rejoins: []Rejoin{{Server: 1, Step: 3}},
			}
			se, err := Open(Input{Partition: p}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer se.Close()
			// Hold each job at its first progress report from superstep 3 on
			// until the other has made one too, so both jobs are in flight
			// when the rejoin fires. (Not "== 3": a recovery that restores
			// step 3's own checkpoint resumes at step 4 without reporting 3.)
			reached := []chan struct{}{make(chan struct{}), make(chan struct{})}
			opts := make([]JobOptions, len(progs))
			for i := range opts {
				var once sync.Once
				opts[i].Progress = func(st StepStats) {
					if st.Superstep < 3 {
						return
					}
					once.Do(func() { close(reached[i]) })
					select {
					case <-reached[1-i]:
					case <-time.After(10 * time.Second):
						t.Errorf("job %d never saw job %d reach superstep 3", i, 1-i)
					}
				}
			}
			results, errs := submitConcurrently(t, se, progs, opts)
			for i, err := range errs {
				if err != nil {
					t.Fatalf("%s: %v", progs[i].Name(), err)
				}
			}
			for i, res := range results {
				label := fmt.Sprintf("in-flight job %d", i)
				wantExact(t, res.Values, base[i], label)
				wantDead(t, res, label, 1) // the join waited for the job to end
			}

			// The join paused admission when it fired, so this Submit starts
			// only after server 1 is back.
			res, err := se.Submit(context.Background(), progs[0], JobOptions{})
			if err != nil {
				t.Fatalf("job after the rejoin: %v", err)
			}
			wantExact(t, res.Values, base[0], "job after the rejoin")
			wantDead(t, res, "job after the rejoin")
			if got := res.Servers[1].Joins; got != 1 {
				t.Fatalf("server 1 reports %d joins, want 1", got)
			}
			if got := res.Servers[0].MembershipEpoch; got != 2 {
				t.Fatalf("membership epoch = %d, want 2 (one death + one join)", got)
			}
			if res.Servers[1].VertexSlots == 0 {
				t.Fatal("rejoined server 1 did not participate")
			}
		})
	}
}

// TestMultiJobJoinPausesAdmission pins the admission pause a multi-tenant
// Join takes. With one job held mid-run on a membership that lost server 1,
// Join(1) keeps a second Submit from starting even though a run slot is
// free: cancelling the Join releases the queued job, which then runs on the
// shrunk membership; a Join that waits lands only once the held job ends,
// and the Submit queued behind it runs with server 1 back.
func TestMultiJobJoinPausesAdmission(t *testing.T) {
	p := chaosPartition(t)
	want := chaosRun(t, p, nil)
	cfg := chaosConfig(t)
	cfg.MaxConcurrentJobs = 2
	cfg.Faults = &FaultPlan{Kills: []Kill{{Server: 1, Step: 1, Point: KillMidStep}}}
	se, err := Open(Input{Partition: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()

	held, release := holdJob(t, se)
	// submit starts a Submit and reports when its first superstep is done.
	submit := func() (started <-chan struct{}, done <-chan submitted) {
		st, dn := make(chan struct{}), make(chan submitted, 1)
		var once sync.Once
		go func() {
			res, err := se.Submit(context.Background(), apps.PageRank{}, JobOptions{
				Progress: func(StepStats) { once.Do(func() { close(st) }) },
			})
			dn <- submitted{res, err}
		}()
		return st, dn
	}
	notStarted := func(started <-chan struct{}, what string) {
		t.Helper()
		select {
		case <-started:
			t.Fatalf("%s started while a join held admission paused", what)
		case <-time.After(150 * time.Millisecond):
		}
	}

	// A cancelled Join resumes admission: the queued job then runs without
	// server 1, next to the held one.
	ctx, cancel := context.WithCancel(context.Background())
	joined := make(chan error, 1)
	go func() { joined <- se.Join(ctx, 1) }()
	waitPaused(t, se)
	started, done := submit()
	notStarted(started, "queued job")
	cancel()
	if err := <-joined; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Join returned %v, want context.Canceled", err)
	}
	q := <-done
	if q.err != nil {
		t.Fatalf("job queued behind the cancelled Join: %v", q.err)
	}
	wantExact(t, q.res.Values, want.Values, "job after the cancelled Join")
	wantDead(t, q.res, "job after the cancelled Join", 1)

	// A waiting Join lands only once the held job ends.
	go func() { joined <- se.Join(context.Background(), 1) }()
	waitPaused(t, se)
	started, done = submit()
	notStarted(started, "job queued behind the Join")
	select {
	case err := <-joined:
		t.Fatalf("Join returned %v while a job was in flight", err)
	default:
	}
	release()
	h := <-held
	if h.err != nil {
		t.Fatalf("held job: %v", h.err)
	}
	wantExact(t, h.res.Values, want.Values, "held job")
	wantDead(t, h.res, "held job", 1)
	if err := <-joined; err != nil {
		t.Fatalf("Join: %v", err)
	}
	q = <-done
	if q.err != nil {
		t.Fatalf("job queued behind the Join: %v", q.err)
	}
	wantExact(t, q.res.Values, want.Values, "job after the Join")
	wantDead(t, q.res, "job after the Join")
	if got := q.res.Servers[1].Joins; got != 1 {
		t.Fatalf("server 1 reports %d joins, want 1", got)
	}
}

// TestMultiJobCloseWithJoinPending: Close while a multi-tenant Join waits
// for an in-flight job neither deadlocks nor strands anyone — the Join and
// the Submit queued behind it return ErrSessionClosed at once, and Close
// returns as soon as the held job finishes.
func TestMultiJobCloseWithJoinPending(t *testing.T) {
	p := chaosPartition(t)
	cfg := chaosConfig(t)
	cfg.MaxConcurrentJobs = 2
	cfg.Faults = &FaultPlan{Kills: []Kill{{Server: 1, Step: 1, Point: KillMidStep}}}
	se, err := Open(Input{Partition: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()

	held, release := holdJob(t, se)
	joined := make(chan error, 1)
	go func() { joined <- se.Join(context.Background(), 1) }()
	waitPaused(t, se)
	queued := make(chan error, 1)
	go func() {
		_, err := se.Submit(context.Background(), apps.PageRank{}, JobOptions{})
		queued <- err
	}()
	closed := make(chan error, 1)
	go func() { closed <- se.Close() }()

	for what, ch := range map[string]chan error{"Join": joined, "queued Submit": queued} {
		select {
		case err := <-ch:
			if !errors.Is(err, ErrSessionClosed) {
				t.Fatalf("%s returned %v, want ErrSessionClosed", what, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s still waiting after Close", what)
		}
	}
	release()
	if h := <-held; h.err != nil {
		t.Fatalf("held job: %v", h.err)
	}
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close deadlocked with a join pending")
	}
}

// submitted is one Submit's outcome.
type submitted struct {
	res *Result
	err error
}

// holdJob starts a PageRank job that parks inside its first progress report
// after the scripted kill of server 1 (superstep 2 on), and returns once it
// is parked. release lets it run to completion; held then yields its result.
func holdJob(t *testing.T, se *Session) (held <-chan submitted, release func()) {
	t.Helper()
	parked, hold, out := make(chan struct{}), make(chan struct{}), make(chan submitted, 1)
	var once sync.Once
	go func() {
		res, err := se.Submit(context.Background(), apps.PageRank{}, JobOptions{
			Progress: func(st StepStats) {
				if st.Superstep < 2 {
					return
				}
				once.Do(func() {
					close(parked)
					<-hold
				})
			},
		})
		out <- submitted{res, err}
	}()
	select {
	case <-parked:
	case <-time.After(30 * time.Second):
		t.Fatal("held job never reached superstep 2")
	}
	return out, func() { close(hold) }
}

// waitPaused polls until a pending join has paused the session's admission.
func waitPaused(t *testing.T, se *Session) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !se.AdmissionPaused() {
		if time.Now().After(deadline) {
			t.Fatal("Join never paused admission")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSessionJoinBetweenJobs exercises the public Session.Join API on an
// idle session: job 1 loses a server, Join readmits it directly (no runner
// is polling the control plane between jobs), and job 2 runs on the fully
// restored membership — the readmitted server simply reclaims its
// setup-persisted base tiles, no checkpoint streaming involved.
func TestSessionJoinBetweenJobs(t *testing.T) {
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

	if err := se.Join(context.Background(), 1); err != nil {
		t.Fatalf("Join: %v", err)
	}
	// Idempotent: joining a live rank is a no-op.
	if err := se.Join(context.Background(), 1); err != nil {
		t.Fatalf("Join of a live rank: %v", err)
	}

	res2, err := se.Submit(context.Background(), apps.PageRank{}, JobOptions{})
	if err != nil {
		t.Fatalf("job 2 (after Join): %v", err)
	}
	wantExact(t, res2.Values, want.Values, "job2")
	wantDead(t, res2, "job2") // full membership again
	if res2.Servers[1].VertexSlots == 0 {
		t.Fatal("job 2: readmitted server 1 did not participate")
	}
	if got := res2.Servers[1].Joins; got != 1 {
		t.Fatalf("job 2: server 1 reports %d joins, want 1", got)
	}
	if got := res2.Servers[0].MembershipEpoch; got != 2 {
		t.Fatalf("job 2: membership epoch = %d, want 2", got)
	}
}

// TestSessionJoinValidation pins Join's argument and state checks.
func TestSessionJoinValidation(t *testing.T) {
	p := chaosPartition(t)
	cfg := chaosConfig(t)
	se, err := Open(Input{Partition: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()

	if err := se.Join(context.Background(), -1); err == nil {
		t.Fatal("Join accepted a negative rank")
	}
	if err := se.Join(context.Background(), 99); err == nil {
		t.Fatal("Join accepted an out-of-range rank")
	}
	// Joining a live member is a no-op, not an error.
	if err := se.Join(context.Background(), 1); err != nil {
		t.Fatalf("Join of a live rank: %v", err)
	}
	if err := se.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := se.Join(context.Background(), 1); err == nil {
		t.Fatal("Join succeeded on a closed session")
	}
}

// TestJobBarrierNoLeak is the regression test for the admission-path leak:
// jobs abandoned while queued (context cancelled before a run slot opened)
// and jobs that ran to completion must both leave the cluster's job-barrier
// table empty.
func TestJobBarrierNoLeak(t *testing.T) {
	_, p := sessionGraph(t)
	cfg := DefaultConfig(2)
	cfg.WorkDir = t.TempDir()
	cfg.MaxSupersteps = 8
	cfg.MaxConcurrentJobs = 2 // two slots: the third Submit must queue
	cfg.MaxQueuedJobs = 4
	se, err := Open(Input{Partition: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()

	// Park a slow job in each run slot: their Progress callbacks block on
	// hold, so neither job can finish until the test releases them.
	slowCtx, slowCancel := context.WithCancel(context.Background())
	hold := make(chan struct{})
	slowErrs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		started := make(chan struct{})
		var once sync.Once
		go func() {
			_, err := se.Submit(slowCtx, apps.PageRank{}, JobOptions{Progress: func(StepStats) {
				once.Do(func() { close(started) })
				<-hold
			}})
			slowErrs <- err
		}()
		<-started
	}

	queuedCtx, cancelQueued := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancelQueued()
	}()
	if _, err := se.Submit(queuedCtx, apps.PageRank{}, JobOptions{}); err == nil {
		t.Fatal("queued Submit survived its context cancellation")
	}

	// Cancel the parked jobs before letting them move again: the next step
	// edge must observe the dead context and unwind as cancelled.
	slowCancel()
	close(hold)
	for i := 0; i < 2; i++ {
		if err := <-slowErrs; err == nil {
			t.Fatal("parked job survived its context cancellation")
		}
	}

	// A healthy job after the churn, then: no barrier residue.
	if _, err := se.Submit(context.Background(), apps.PageRank{}, JobOptions{}); err != nil {
		t.Fatalf("follow-up job: %v", err)
	}
	if n := se.JobBarrierCount(); n != 0 {
		t.Fatalf("job-barrier table retains %d entries, want 0", n)
	}
}
