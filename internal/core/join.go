package core

// Elastic membership (see docs/ARCHITECTURE.md, "Elastic membership").
// A dead server rejoins a live session only between jobs, whatever the
// tenancy: the join pauses admission, the in-flight jobs finish on the
// shrunk membership — recovery already made them whole — and the
// controller admits the joiner directly once none is left
// (joinBetweenJobs). It serves from the next job on, which observes the
// grown membership from its first step.

import (
	"context"
	"fmt"
	"time"
)

// Join readmits a dead server into the live session and returns once it is
// a live member again; joining a live rank is a no-op. Admission lands only
// between jobs: Join pauses admission until the in-flight job (or jobs)
// finish without the server, so the wait is bounded only by ctx and Close.
// Cancelling ctx abandons the join.
func (se *Session) Join(ctx context.Context, rank int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return se.joinServer(ctx, rank)
}

// scriptedRejoin is the fault plan's entry point (compiledFaults.onRejoin):
// it runs the same protocol as Join in the background. Admission pauses
// before it returns, on the firing runner, so no Submit is admitted ahead
// of the join.
func (se *Session) scriptedRejoin(f Rejoin) {
	se.sched.pause()
	go func() {
		defer se.sched.resume()
		// Scripted coordinates can fire on the same step edge as the kill
		// that makes the server eligible; give the kill a moment to land. A
		// rejoin for a server that stays alive is a no-op, per the Rejoin
		// contract.
		waitDead := time.Now().Add(100 * time.Millisecond)
		for se.cl.Alive(f.Server) {
			if time.Now().After(waitDead) {
				return
			}
			time.Sleep(time.Millisecond)
		}
		_ = se.joinServer(context.Background(), f.Server)
	}()
}

// joinRefusal reports why the session can admit nobody any more — it was
// closed, or a hard error killed it — or nil while a join may proceed.
func (se *Session) joinRefusal() error {
	closed, dead := se.liveState()
	if closed {
		return fmt.Errorf("core: Join: %w", ErrSessionClosed)
	}
	if dead != nil {
		return &sessionDeadError{cause: dead}
	}
	return nil
}

// joinServer is the joiner side shared by Join and the scripted rejoin.
func (se *Session) joinServer(ctx context.Context, rank int) error {
	if rank < 0 || rank >= se.cfg.NumServers {
		return fmt.Errorf("core: Join of invalid server rank %d", rank)
	}
	if err := se.joinRefusal(); err != nil {
		return err
	}
	if se.cl.Alive(rank) {
		return nil
	}
	return se.joinBetweenJobs(ctx, rank)
}

// joinBetweenJobs admits rank between jobs. Admission pauses so no new job
// starts; the in-flight jobs finish on the shrunk membership, which
// recovery already made whole; tryDirectAdmit lands the join once none is
// left; and admission resumes, so the joiner serves from the next job.
// Admitting only between jobs keeps one runner per job on every node. The
// wait is bounded by ctx and by Close: the longest in-flight job sets it.
func (se *Session) joinBetweenJobs(ctx context.Context, rank int) error {
	se.sched.pause()
	defer se.sched.resume()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		if err := se.joinRefusal(); err != nil {
			return err
		}
		if se.tryDirectAdmit(rank) {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// tryDirectAdmit admits rank when no job is in flight. Holding the registry
// lock across the declaration and revival closes the race with a
// concurrent Submit: a job registered before we looked makes the caller
// retry; one registered after observes the grown membership (and, on the
// revived node, a cleared death flag) from its very first step.
func (se *Session) tryDirectAdmit(rank int) bool {
	se.regMu.Lock()
	defer se.regMu.Unlock()
	if len(se.inflight) > 0 {
		return false
	}
	se.cl.Node(rank).DeclareJoined(rank)
	se.reviveLocked(rank)
	return true
}

// reviveLocked (caller holds regMu, with no job in flight) clears the
// node's death flag and boots a fresh frame router on a multi-tenant node
// (the old one's done channel is permanently closed).
func (se *Session) reviveLocked(rank int) {
	sv := se.servers[rank]
	sh := sv.shared
	if !sh.dead.Load() {
		return // already revived
	}
	// A serial node runs its next job on the killed runner's struct, and
	// that runner's receive goroutine may still be unwinding on it.
	sh.quiesceWait()
	// The next job replays the step numbers; the kill that felled this
	// server must not fire again.
	sv.faults.disarmKills(rank)
	// Count the comeback before the next job snapshots the node's counters.
	sh.joins.Add(1)
	if old := sh.router.Load(); old != nil {
		old.halt()
		r := newFrameRouter(sv.node, se.routerCap, se.noteFatal)
		sh.router.Store(r)
		go r.run()
	}
	sh.dead.Store(false)
}
