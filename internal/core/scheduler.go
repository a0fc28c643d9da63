package core

// Multi-tenant job scheduling (see docs/ARCHITECTURE.md, "Multi-tenant
// scheduling"). A session opened with Config.MaxConcurrentJobs > 1 admits up
// to that many Submits into the cluster at once and interleaves their BSP
// loops. Two mechanisms implement the policy:
//
//   - jobScheduler, the session-level admission controller: a fixed set of
//     run slots plus a bounded wait-queue ordered by weighted virtual time
//     (the task-queue + bounded-worker-pool shape). A Submit that finds no
//     free slot parks in the queue; one that finds the queue full fails
//     fast with ErrJobQueueFull. Higher-weight jobs enqueue with smaller
//     virtual times and are granted first within a backlog. A pending join
//     pauses admission (pause/resume) so the in-flight jobs drain and the
//     joiner is admitted between jobs. A serial session owns one too, for
//     the pause alone: its Submit waits it out (awaitResume).
//
//   - stepGate, the per-server weighted-round-robin turnstile at superstep
//     edges: each runner arrives before starting a step, and among the
//     runners waiting at the same instant the one with the smallest
//     (step+1)/weight passes first — a weight-2 job is serviced twice as
//     often as a weight-1 job when the gate is contended. The key is a pure
//     function of (job, step, weight), identical on every server, so the
//     gates impose one global total order: a waiting job only ever yields
//     to a job with a strictly smaller key, and no cross-server cycle of
//     waits can form. A job that is mid-step is not waiting and blocks
//     nobody — the gate orders ready jobs, it never throttles running ones.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/costmodel"
)

// ErrJobQueueFull is returned by Submit when the session's admission queue
// is at capacity: MaxConcurrentJobs jobs are running and
// costmodel.JobQueueBound (or Config.MaxQueuedJobs) Submits are already
// waiting. The caller sheds load or retries later; nothing was enqueued.
var ErrJobQueueFull = errors.New("core: job admission queue full")

// admitWaiter is one Submit parked in the admission queue.
type admitWaiter struct {
	vt    float64
	seq   uint64
	ready chan int // receives the granted slot
}

// jobScheduler is the session-level admission controller.
type jobScheduler struct {
	mu       sync.Mutex
	maxRun   int
	maxQueue int
	running  int
	paused   int           // nested pause count; no slot is granted while non-zero
	resumed  chan struct{} // closed when paused drops back to zero
	free     []int         // free slot indices
	queue    []*admitWaiter
	clock    float64 // virtual time of the last grant
	seq      uint64
	mask     atomic.Uint64 // bitmask of occupied slots, for lock-free reads
}

func newJobScheduler(maxRun, maxQueue int) *jobScheduler {
	s := &jobScheduler{maxRun: maxRun, maxQueue: maxQueue}
	for i := maxRun - 1; i >= 0; i-- {
		s.free = append(s.free, i)
	}
	return s
}

// admit blocks until the job is granted a run slot, its context is
// cancelled, or the wait-queue is full (ErrJobQueueFull, immediately). The
// returned slot index identifies the job in share-window bitmasks and must
// be handed back via release.
func (s *jobScheduler) admit(ctx context.Context, weight int) (slot int, err error) {
	s.mu.Lock()
	if s.paused == 0 && s.running < s.maxRun && len(s.queue) == 0 {
		slot = s.grantLocked()
		s.mu.Unlock()
		return slot, nil
	}
	if len(s.queue) >= s.maxQueue {
		s.mu.Unlock()
		return 0, ErrJobQueueFull
	}
	w := &admitWaiter{vt: s.clock + costmodel.WRRCharge(weight), seq: s.seq, ready: make(chan int, 1)}
	s.seq++
	// Insert sorted by (virtual time, arrival): a weight-w job queues as if
	// it arrived 1/w units after the last grant, so heavier jobs overtake
	// lighter ones enqueued in the same backlog window, and equal weights
	// stay FIFO.
	at := len(s.queue)
	for i, q := range s.queue {
		if w.vt < q.vt {
			at = i
			break
		}
	}
	s.queue = append(s.queue, nil)
	copy(s.queue[at+1:], s.queue[at:])
	s.queue[at] = w
	s.mu.Unlock()

	select {
	case slot := <-w.ready:
		return slot, nil
	case <-ctx.Done():
		s.mu.Lock()
		removed := false
		for i, q := range s.queue {
			if q == w {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				removed = true
				break
			}
		}
		s.mu.Unlock()
		if !removed {
			// The grant raced the cancellation: take the slot and hand it
			// straight back so the next waiter gets it.
			s.release(<-w.ready)
		}
		return 0, ctx.Err()
	}
}

// grantLocked claims a free slot for a newly running job.
func (s *jobScheduler) grantLocked() int {
	s.running++
	slot := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	s.mask.Store(s.mask.Load() | 1<<uint(slot))
	return slot
}

// release returns a finished job's slot and grants it to the head of the
// wait-queue unless admission is paused.
func (s *jobScheduler) release(slot int) {
	s.mu.Lock()
	s.running--
	s.free = append(s.free, slot)
	s.mask.Store(s.mask.Load() &^ (1 << uint(slot)))
	s.grantQueuedLocked()
	s.mu.Unlock()
}

// grantQueuedLocked hands free slots to the head of the wait-queue while
// admission is not paused, advancing the virtual clock to each granted
// waiter's time.
func (s *jobScheduler) grantQueuedLocked() {
	for s.paused == 0 && s.running < s.maxRun && len(s.queue) > 0 {
		w := s.queue[0]
		s.queue = s.queue[1:]
		s.clock = w.vt
		w.ready <- s.grantLocked()
	}
}

// pause stops admission until the matching resume: admit queues (or fails
// fast with ErrJobQueueFull) even when a slot is free, release grants
// nothing, and awaitResume blocks. Pauses nest.
func (s *jobScheduler) pause() { s.addPause(1) }

// resume lifts one pause; the last one grants every free slot to the queue.
func (s *jobScheduler) resume() { s.addPause(-1) }

func (s *jobScheduler) addPause(d int) {
	s.mu.Lock()
	if s.paused == 0 {
		s.resumed = make(chan struct{})
	}
	s.paused += d
	if s.paused == 0 {
		close(s.resumed)
	}
	s.grantQueuedLocked()
	s.mu.Unlock()
}

// awaitResume blocks while admission is paused, or until ctx is done.
func (s *jobScheduler) awaitResume(ctx context.Context) error {
	for {
		s.mu.Lock()
		paused, resumed := s.paused > 0, s.resumed
		s.mu.Unlock()
		if !paused {
			return nil
		}
		select {
		case <-resumed:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// runningMask returns the occupied-slot bitmask with self's bit cleared —
// the consumer set a share-window offer targets.
func (s *jobScheduler) othersMask(selfBit uint64) uint64 {
	return s.mask.Load() &^ selfBit
}

// queued returns the current wait-queue depth (tests and report lines).
func (s *jobScheduler) queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// stepGate is the per-server WRR turnstile at superstep edges.
type stepGate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	waiting map[uint32]float64
}

func newStepGate() *stepGate {
	g := &stepGate{waiting: make(map[uint32]float64)}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// arrive blocks the runner at the step edge until no simultaneously waiting
// job has a smaller (virtual time, job ID) key. The key (step+1)·(1/weight)
// depends only on globally consistent quantities, so every server orders
// the same pair of waiting jobs the same way.
func (g *stepGate) arrive(job uint32, weight, step int) {
	vt := float64(step+1) * costmodel.WRRCharge(weight)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.waiting[job] = vt
	for {
		best, bestV := job, vt
		for j, v := range g.waiting {
			if v < bestV || (v == bestV && j < best) {
				best, bestV = j, v
			}
		}
		if best == job {
			delete(g.waiting, job)
			g.cond.Broadcast()
			return
		}
		g.cond.Wait()
	}
}

// leave clears any stale waiting entry for a finished job (a runner that
// died inside arrive cannot remove itself) and wakes the gate.
func (g *stepGate) leave(job uint32) {
	g.mu.Lock()
	delete(g.waiting, job)
	g.cond.Broadcast()
	g.mu.Unlock()
}
