package core

// White-box tests for the multi-tenant admission controller and the WRR
// step gate. The integration contracts (bit-identity, fairness under real
// jobs) live in multijob_test.go; these pin the scheduling mechanics in
// isolation: slot accounting, queue ordering by weighted virtual time,
// fail-fast overflow, cancellation, and the gate's key ordering.

import (
	"context"
	"errors"
	"testing"
	"time"
)

// waitUntil polls cond for up to two seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestJobSchedulerSlots(t *testing.T) {
	s := newJobScheduler(2, 4)
	a, err := s.admit(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.admit(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatalf("two running jobs share slot %d", a)
	}
	if got, want := s.othersMask(1<<uint(a)), uint64(1)<<uint(b); got != want {
		t.Fatalf("othersMask = %#x, want %#x", got, want)
	}

	// Third admit parks in the queue and is granted a's slot on release.
	granted := make(chan int, 1)
	go func() {
		sl, err := s.admit(context.Background(), 1)
		if err != nil {
			t.Error(err)
		}
		granted <- sl
	}()
	waitUntil(t, "third admit to queue", func() bool { return s.queued() == 1 })
	s.release(a)
	if sl := <-granted; sl != a {
		t.Fatalf("queued job granted slot %d, want the freed slot %d", sl, a)
	}
	if s.queued() != 0 {
		t.Fatalf("queue depth %d after grant, want 0", s.queued())
	}
	s.release(b)
	s.release(a)
	if s.othersMask(0) != 0 {
		t.Fatalf("occupied mask %#x after all releases", s.othersMask(0))
	}
}

// TestJobSchedulerWeightOrder pins the backlog policy: within one backlog
// window a weight-2 job enqueues at clock+1/2 and overtakes a weight-1 job
// already queued at clock+1, while equal weights stay FIFO. A Submit that
// finds the queue at capacity fails fast.
func TestJobSchedulerWeightOrder(t *testing.T) {
	s := newJobScheduler(1, 2)
	slot, err := s.admit(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}

	grants := make(chan string, 2)
	release := make(chan struct{})
	park := func(name string, weight int) {
		go func() {
			sl, err := s.admit(context.Background(), weight)
			if err != nil {
				t.Error(err)
				return
			}
			grants <- name
			<-release
			s.release(sl)
		}()
	}
	park("light", 1)
	waitUntil(t, "light to queue", func() bool { return s.queued() == 1 })
	park("heavy", 2)
	waitUntil(t, "heavy to queue", func() bool { return s.queued() == 2 })

	// Queue full: the next admit sheds load immediately.
	if _, err := s.admit(context.Background(), 1); !errors.Is(err, ErrJobQueueFull) {
		t.Fatalf("overflow admit returned %v, want ErrJobQueueFull", err)
	}

	s.release(slot)
	if first := <-grants; first != "heavy" {
		t.Fatalf("first grant went to %q, want the heavier job", first)
	}
	release <- struct{}{}
	if second := <-grants; second != "light" {
		t.Fatalf("second grant went to %q, want light", second)
	}
	release <- struct{}{}
}

func TestJobSchedulerCancelWhileQueued(t *testing.T) {
	s := newJobScheduler(1, 4)
	slot, err := s.admit(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := s.admit(ctx, 1)
		errCh <- err
	}()
	waitUntil(t, "waiter to queue", func() bool { return s.queued() == 1 })
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled admit returned %v, want context.Canceled", err)
	}
	if s.queued() != 0 {
		t.Fatalf("queue depth %d after cancellation, want 0", s.queued())
	}
	// The slot chain is intact: release grants nothing (queue empty) and the
	// slot is immediately re-admittable.
	s.release(slot)
	if _, err := s.admit(context.Background(), 1); err != nil {
		t.Fatalf("admit after cancellation: %v", err)
	}
}

// TestJobSchedulerPause pins the join's admission pause: while paused, an
// admit queues even with a slot free, the queue bound still sheds load, a
// release grants nothing, only the last of nested resumes grants, and
// awaitResume waits the pause out.
func TestJobSchedulerPause(t *testing.T) {
	s := newJobScheduler(2, 1)
	held, err := s.admit(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	s.pause()
	s.pause()
	granted := make(chan int, 1)
	go func() {
		slot, err := s.admit(context.Background(), 1)
		if err != nil {
			t.Error(err)
		}
		granted <- slot
	}()
	waitUntil(t, "admit to queue behind the pause", func() bool { return s.queued() == 1 })
	if _, err := s.admit(context.Background(), 1); !errors.Is(err, ErrJobQueueFull) {
		t.Fatalf("overflow admit while paused returned %v, want ErrJobQueueFull", err)
	}
	s.release(held)
	s.resume()
	select {
	case slot := <-granted:
		t.Fatalf("slot %d granted with one pause still held", slot)
	case <-time.After(20 * time.Millisecond):
	}
	s.resume()
	select {
	case <-granted:
	case <-time.After(2 * time.Second):
		t.Fatal("last resume granted nothing")
	}
	if s.queued() != 0 {
		t.Fatalf("queue depth %d after resume, want 0", s.queued())
	}

	// awaitResume, a serial Submit's wait: it blocks while paused, gives up
	// when its ctx is done, and returns once the last pause lifts.
	s.pause()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.awaitResume(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("awaitResume with a cancelled ctx returned %v, want context.Canceled", err)
	}
	resumed := make(chan error, 1)
	go func() { resumed <- s.awaitResume(context.Background()) }()
	select {
	case err := <-resumed:
		t.Fatalf("awaitResume returned %v while paused", err)
	case <-time.After(20 * time.Millisecond):
	}
	s.resume()
	select {
	case err := <-resumed:
		if err != nil {
			t.Fatalf("awaitResume after resume: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("resume did not release awaitResume")
	}
	if err := s.awaitResume(cancelled); err != nil {
		t.Fatalf("awaitResume while unpaused: %v", err)
	}
}

// TestStepGateKeyOrder pins the turnstile semantics: a waiting job blocks
// only behind strictly smaller (virtual time, job ID) keys, so a
// high-weight arrival passes a contended gate immediately while a
// low-weight one waits its turn.
func TestStepGateKeyOrder(t *testing.T) {
	g := newStepGate()
	// Pin the gate with a fake waiter whose key undercuts weight-1 step-0
	// arrivals (key 1.0) but not a weight-8 one (key 0.125).
	g.mu.Lock()
	g.waiting[99] = 0.25
	g.mu.Unlock()

	lightDone := make(chan struct{})
	go func() {
		g.arrive(1, 1, 0)
		close(lightDone)
	}()
	select {
	case <-lightDone:
		t.Fatal("weight-1 job passed a gate pinned by a smaller key")
	case <-time.After(50 * time.Millisecond):
	}

	heavyDone := make(chan struct{})
	go func() {
		g.arrive(2, 8, 0)
		close(heavyDone)
	}()
	select {
	case <-heavyDone:
	case <-time.After(2 * time.Second):
		t.Fatal("weight-8 job blocked despite holding the smallest key")
	}
	select {
	case <-lightDone:
		t.Fatal("weight-1 job slipped through while the pin was still held")
	case <-time.After(50 * time.Millisecond):
	}

	g.leave(99)
	select {
	case <-lightDone:
	case <-time.After(2 * time.Second):
		t.Fatal("weight-1 job never passed after the pin left")
	}
}

// TestStepGateTieBreak: equal keys order by job ID, so the ordering is a
// total order on every server and no two gates can disagree.
func TestStepGateTieBreak(t *testing.T) {
	g := newStepGate()
	g.mu.Lock()
	g.waiting[2] = 1.0 // same key as a weight-1 step-0 arrival
	g.mu.Unlock()

	done := make(chan struct{})
	go func() {
		g.arrive(3, 1, 0) // key 1.0, higher ID — must yield
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("higher-ID job won an equal-key tie")
	case <-time.After(50 * time.Millisecond):
	}
	g.leave(2)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("job never passed after the tie holder left")
	}
}
