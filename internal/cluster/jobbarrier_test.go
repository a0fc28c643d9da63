package cluster

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestJobBarrierIndependence pins the isolation property: two jobs'
// barriers never synchronize with each other. Job 1's nodes complete many
// generations while job 2's nodes are parked at their own barrier.
func TestJobBarrierIndependence(t *testing.T) {
	c, err := New(Config{NumNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var job1Gens atomic.Int32
	var wg sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := c.Node(i)
			for g := 0; g < 50; g++ {
				if _, err := n.JobBarrierVoteEpoch(1, false, 0); err != nil {
					t.Errorf("job 1 node %d: %v", i, err)
					return
				}
			}
			job1Gens.Add(1)
		}(i)
	}
	// Job 2: only node 0 arrives; it must stay blocked while job 1 spins.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-release
		if _, err := c.Node(1).JobBarrierVoteEpoch(2, false, 0); err != nil {
			t.Errorf("job 2 node 1: %v", err)
		}
	}()
	done2 := make(chan struct{})
	go func() {
		c.Node(0).JobBarrierVoteEpoch(2, false, 0)
		close(done2)
	}()

	// Wait for job 1 to finish all generations with job 2 still parked.
	deadline := time.After(5 * time.Second)
	for job1Gens.Load() != 2 {
		select {
		case <-done2:
			t.Fatal("job 2 barrier completed with only one arrival")
		case <-deadline:
			t.Fatal("job 1 barriers did not complete")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(release)
	wg.Wait()
	<-done2
	c.ReleaseJobBarrier(1)
	c.ReleaseJobBarrier(2)
}

// TestJobBarrierVoteIsolation: a true vote in job 1 must not leak into job
// 2's decision at the same step edge.
func TestJobBarrierVoteIsolation(t *testing.T) {
	c, err := New(Config{NumNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type res struct {
		job uint32
		d   bool
	}
	results := make(chan res, 4)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		for _, job := range []uint32{1, 2} {
			wg.Add(1)
			go func(i int, job uint32) {
				defer wg.Done()
				// Job 1 nodes vote true; job 2 nodes vote false.
				d, err := c.Node(i).JobBarrierVoteEpoch(job, job == 1, 0)
				if err != nil {
					t.Errorf("job %d node %d: %v", job, i, err)
					return
				}
				results <- res{job, d}
			}(i, job)
		}
	}
	wg.Wait()
	close(results)
	for r := range results {
		if want := r.job == 1; r.d != want {
			t.Fatalf("job %d decision = %v, want %v", r.job, r.d, want)
		}
	}
}

// TestJobBarrierDeposedOnDeath: a death interrupts every job's barrier with
// ErrMembershipChanged, and a barrier created after the death counts only
// survivors.
func TestJobBarrierDeposedOnDeath(t *testing.T) {
	c, err := New(Config{NumNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	errc := make(chan error, 1)
	go func() {
		_, err := c.Node(0).JobBarrierVoteEpoch(7, false, 0)
		errc <- err
	}()
	// Let node 0 park, then kill node 2.
	time.Sleep(10 * time.Millisecond)
	c.Node(2).Crash()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrMembershipChanged) {
			t.Fatalf("err = %v, want ErrMembershipChanged", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter not deposed")
	}

	// Survivors re-ack and a NEW job's barrier completes with just the two
	// of them.
	epoch, _ := c.Node(0).AckMembership()
	c.Node(1).AckMembership()
	var wg sync.WaitGroup
	for _, i := range []int{0, 1} {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Node(i).JobBarrierVoteEpoch(8, false, epoch); err != nil {
				t.Errorf("node %d post-death: %v", i, err)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("post-death job barrier hung")
	}
}

// TestJobBarrierBrokenByAbort: Abort releases parked job-barrier waiters,
// and barriers created afterwards are born broken.
func TestJobBarrierBrokenByAbort(t *testing.T) {
	c, err := New(Config{NumNodes: 2})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan bool, 1)
	go func() {
		d, _ := c.Node(0).JobBarrierVoteEpoch(3, false, 0)
		done <- d
	}()
	time.Sleep(10 * time.Millisecond)
	c.Abort()
	select {
	case d := <-done:
		if !d {
			t.Fatal("broken barrier should decide true (abort vote)")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abort did not release job-barrier waiter")
	}
	// Born-broken: a fresh job's barrier returns immediately.
	if d, err := c.Node(0).JobBarrierVoteEpoch(4, false, 0); err != nil || !d {
		t.Fatalf("post-abort barrier: d=%v err=%v, want true,nil", d, err)
	}
}

// TestBarrierErrBroken: once the cluster aborts, the voteless barriers fail
// with ErrBarrierBroken — for a waiter parked at the time of the abort and
// for every later arrival, on the main and the per-job barriers — instead
// of reading as a clean pass. The vote forms keep the abort-is-a-unanimous
// -true contract.
func TestBarrierErrBroken(t *testing.T) {
	c, err := New(Config{NumNodes: 2})
	if err != nil {
		t.Fatal(err)
	}

	parked := make(chan error, 1)
	go func() { parked <- c.Node(0).BarrierErr() }()
	waitArrived(t, c.bar, 0)
	c.Abort()
	select {
	case err := <-parked:
		if !errors.Is(err, ErrBarrierBroken) {
			t.Fatalf("parked BarrierErr after abort: %v, want ErrBarrierBroken", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abort did not release the BarrierErr waiter")
	}
	if err := c.Node(1).BarrierErr(); !errors.Is(err, ErrBarrierBroken) {
		t.Fatalf("BarrierErr after abort: %v, want ErrBarrierBroken", err)
	}
	if err := c.Node(1).JobBarrierErr(9, 0); !errors.Is(err, ErrBarrierBroken) {
		t.Fatalf("JobBarrierErr after abort: %v, want ErrBarrierBroken", err)
	}
	if !errors.Is(ErrBarrierBroken, ErrClosed) {
		t.Fatal("ErrBarrierBroken must match ErrClosed (shutdown noise for root-cause selection)")
	}
	if d, err := c.Node(1).BarrierVoteErr(false); err != nil || !d {
		t.Fatalf("BarrierVoteErr after abort: d=%v err=%v, want true,nil", d, err)
	}
	if !c.Node(0).BarrierVote(false) {
		t.Fatal("BarrierVote after abort must decide true")
	}
}

// TestBarrierDuplicateVote: a rank that arrives twice in one generation — two
// runners voting in one rank's slot — is refused with ErrDuplicateVote
// instead of being counted twice, and the generation still completes once
// the missing rank arrives.
func TestBarrierDuplicateVote(t *testing.T) {
	c, err := New(Config{NumNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	first := make(chan error, 1)
	go func() {
		_, err := c.Node(0).JobBarrierVoteEpoch(5, false, 0)
		first <- err
	}()
	// Second arrival of rank 0 in the same generation: wait until the first
	// one is counted, then vote again from another goroutine.
	b := c.jobBarrier(5)
	waitArrived(t, b, 0)
	_, err = c.Node(0).JobBarrierVoteEpoch(5, true, 0)
	if !errors.Is(err, ErrDuplicateVote) {
		t.Fatalf("second arrival of rank 0: err = %v, want ErrDuplicateVote", err)
	}
	if want := "rank 0, epoch 0"; !strings.Contains(err.Error(), want) {
		t.Fatalf("duplicate-vote error %q does not name %q", err, want)
	}
	// The refused vote left no trace: ranks 1 and 2 complete the generation
	// with the original, all-false votes.
	var wg sync.WaitGroup
	for _, i := range []int{1, 2} {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if d, err := c.Node(i).JobBarrierVoteEpoch(5, false, 0); err != nil || d {
				t.Errorf("node %d: d=%v err=%v, want false,nil", i, d, err)
			}
		}(i)
	}
	wg.Wait()
	if err := <-first; err != nil {
		t.Fatalf("first arrival of rank 0: %v", err)
	}
}

// TestBarrierAccuserReentry: the accuser that deposes a silent rank re-enters
// the barrier it already arrived at. Deposal resets the generation, so the
// re-entry is an ordinary ErrMembershipChanged, never a duplicate vote, and
// the survivors then synchronize at the new epoch.
func TestBarrierAccuserReentry(t *testing.T) {
	c, err := New(Config{NumNodes: 3, FailureTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	errs := make(chan error, 2)
	for _, i := range []int{0, 1} {
		go func(i int) {
			_, err := c.Node(i).JobBarrierVoteEpoch(6, false, 0)
			errs <- err
		}(i)
	}
	// Rank 2 never arrives: rank 0 (the lowest arrived) accuses it, deposes
	// it and re-enters; both waiters unwind with the membership change.
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrMembershipChanged) {
				t.Fatalf("waiter: err = %v, want ErrMembershipChanged", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("silent rank never accused")
		}
	}
	if c.Alive(2) {
		t.Fatal("silent rank 2 still a member")
	}
	epoch, _ := c.Node(0).AckMembership()
	c.Node(1).AckMembership()
	var wg sync.WaitGroup
	for _, i := range []int{0, 1} {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Node(i).JobBarrierVoteEpoch(6, false, epoch); err != nil {
				t.Errorf("node %d after deposal: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
}

// waitArrived polls until rank is counted in b's filling generation.
func waitArrived(t *testing.T, b *reusableBarrier, rank int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		ok := b.arrived[rank]
		b.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("rank %d never arrived", rank)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBarrierSparesLiveReceiver: a rank still inside a counted receive is
// not a barrier suspect. Rank 0 waits at the barrier first; rank 2 then
// enters a receive that silent rank 1 owes. When rank 0's barrier timeout
// fires first, it must accuse rank 1 alone — rank 2 is live, and its own
// stall timer names the peer it waits for. Only rank 1 may end up dead.
func TestBarrierSparesLiveReceiver(t *testing.T) {
	const timeout = 400 * time.Millisecond
	c, err := New(Config{NumNodes: 3, FailureTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	barrier := make(chan error, 1)
	go func() {
		_, err := c.Node(0).BarrierVoteErr(false)
		barrier <- err
	}()
	waitArrived(t, c.bar, 0)
	// Rank 0's barrier timer is armed; start rank 2's receive well after it,
	// so rank 0's timeout is the first detector to fire.
	time.Sleep(timeout / 2)
	err = c.Node(2).RecvStreamWhile(nil, func(int, []byte) (bool, error) {
		return false, errors.New("nobody sends")
	})
	switch {
	case errors.Is(err, ErrRecvStall):
		// Rank 2's own detector fired: it accuses the peer that owes it.
		c.Node(2).DeclareDead(1)
	case errors.Is(err, ErrMembershipChanged):
		// Rank 0's barrier timeout deposed someone; the check below says who.
	default:
		t.Fatalf("rank 2 receive: %v", err)
	}
	select {
	case err := <-barrier:
		if !errors.Is(err, ErrMembershipChanged) {
			t.Fatalf("rank 0 barrier: %v, want ErrMembershipChanged", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("rank 0 barrier never unwound")
	}
	if !c.Alive(0) || c.Alive(1) || !c.Alive(2) {
		t.Fatalf("alive = [%v %v %v], want only silent rank 1 dead", c.Alive(0), c.Alive(1), c.Alive(2))
	}
}
