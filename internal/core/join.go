package core

// Elastic membership (see docs/ARCHITECTURE.md, "Elastic membership").
// A dead server rejoins a live session. A multi-tenant session
// (MaxConcurrentJobs > 1) admits it only between jobs: the join pauses
// admission, the in-flight jobs finish on the shrunk membership — recovery
// already made them whole — and the controller admits the joiner directly
// once none is left (joinBetweenJobs); it serves from the next job on. A
// serial session also admits mid-job, in three acts:
//
//  1. Handshake. The joiner's controller goroutine sends a versioned join
//     request over the cluster's control plane (cluster.Node.CtlSend — the
//     one channel that works for non-members) to every live rank, the
//     coordinator (lowest live rank) first, and waits for an accept.
//     Requests are retried with exponential backoff plus deterministic
//     jitter under a hard deadline; the live server polls for requests only
//     at superstep edges (pollJoinRequests), so admission always lands at a
//     step boundary. The request is replicated to all live ranks because
//     mid-step servers may be stalled waiting on a peer and cannot poll —
//     whichever rank reaches its step edge first performs the admission,
//     and the declaration is idempotent for everyone else.
//  2. Admission. The polling server calls cluster.Node.DeclareJoined: the
//     membership epoch grows, the barriers are re-keyed to the larger
//     member count, and the in-flight runners' next blocked operation
//     unwinds with ErrMembershipChanged — the same level-triggered signal a
//     death raises, funneling everyone into the recovery protocol.
//  3. Fold-in. The session revives the node (reviveServer): the death flag
//     clears and a replacement runner is spawned for the job the dead node
//     consumed as a zombie (rejoinJob). The replacement advertises need in
//     the marker exchange, is excluded from the restore consensus, receives
//     the consensus checkpoint from a donor (recovery.go streamCheckpoint),
//     re-adopts its own setup-persisted tiles through the ordinary
//     reconcile pass, and replays from restore+1 — bit-identically, like
//     any survivor.
//
// A joiner that is admitted but dies again before restoring state (the
// scripted FailMidTransfer) is simply declared dead once more; survivors'
// next recovery pass re-acknowledges the shrunk view and proceeds without
// it — the pending grown epoch rolls back to a plain membership change.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// Join-handshake frame codec. Frames travel the cluster control plane
// (CtlSend prefixes its own magic); these magics classify the inner frame.
const (
	// joinReqMagic opens a join request:
	// [magic][version u16][rank u16][attempt u32].
	joinReqMagic = 0xCE
	// joinRespMagic opens a join response: [magic][version u16][rank u16][accept u8].
	joinRespMagic = 0xCF

	// joinProtoVersion is the handshake wire version. A coordinator that
	// sees a different version rejects the request (accept=0) so a
	// mismatched joiner fails fast instead of retrying forever.
	joinProtoVersion = 1

	joinReqSize  = 1 + 2 + 2 + 4
	joinRespSize = 1 + 2 + 2 + 1
)

// Handshake retry policy: exponential backoff with deterministic jitter
// under a hard deadline derived from the cluster's failure timeout.
const (
	joinBackoffBase = 10 * time.Millisecond
	joinBackoffCap  = 250 * time.Millisecond
)

// appendJoinReq appends a join request for rank (attempt is a retry
// counter, for observability and response dedup).
func appendJoinReq(dst []byte, rank int, attempt uint32) []byte {
	dst = append(dst, joinReqMagic)
	dst = binary.LittleEndian.AppendUint16(dst, joinProtoVersion)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(rank))
	dst = binary.LittleEndian.AppendUint32(dst, attempt)
	return dst
}

// decodeJoinReq parses a join request. ok is false for anything malformed —
// control frames are unauthenticated input, so the decoder never panics and
// never trusts a length.
func decodeJoinReq(p []byte) (version, rank int, attempt uint32, ok bool) {
	if len(p) != joinReqSize || p[0] != joinReqMagic {
		return 0, 0, 0, false
	}
	version = int(binary.LittleEndian.Uint16(p[1:]))
	rank = int(binary.LittleEndian.Uint16(p[3:]))
	attempt = binary.LittleEndian.Uint32(p[5:])
	return version, rank, attempt, true
}

// appendJoinResp appends a join response for rank.
func appendJoinResp(dst []byte, rank int, accept bool) []byte {
	dst = append(dst, joinRespMagic)
	dst = binary.LittleEndian.AppendUint16(dst, joinProtoVersion)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(rank))
	if accept {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return dst
}

// decodeJoinResp parses a join response.
func decodeJoinResp(p []byte) (version, rank int, accept, ok bool) {
	if len(p) != joinRespSize || p[0] != joinRespMagic {
		return 0, 0, false, false
	}
	version = int(binary.LittleEndian.Uint16(p[1:]))
	rank = int(binary.LittleEndian.Uint16(p[3:]))
	accept = p[5] != 0
	return version, rank, accept, true
}

// joinJitter deterministically spreads a backoff interval ±25% — the result
// lands in [3d/4, 5d/4) — from the (rank, attempt) coordinate: deterministic
// so scripted fault plans replay identically, spread so two concurrent
// joiners don't beat in lockstep.
func joinJitter(d time.Duration, rank int, attempt uint32) time.Duration {
	h := uint64(rank)*0x9E3779B97F4A7C15 + uint64(attempt)*0xBF58476D1CE4E5B9
	h ^= h >> 31
	frac := int64(h % 1024) // 0..1023
	return d/2 + time.Duration(int64(d)*frac/1024/2) + d/4
}

// admitsJoins reports whether this runner admits joiners at its step edges.
// Only a serial session's runner does — a multi-tenant session admits
// between jobs (joinBetweenJobs) — and only for a job that can absorb a
// membership grow: the admission throws it into the recovery protocol, which
// needs checkpoints under All-in-All replication. A serial session has one
// job in flight, so this runner's own job is the only one to ask about.
func (s *server) admitsJoins() bool {
	return !s.multi && s.ckptEvery > 0 && s.cfg.Replication == AllInAll
}

// pollJoinRequests is the live-server half of the handshake, called at the
// start of every superstep before any of the step's traffic. Admission is
// idempotent — a duplicate request for an already-live rank just re-sends
// the accept, which the joiner's retry loop may have missed.
func (s *server) pollJoinRequests() {
	n := s.node
	if !s.admitsJoins() || n.NumNodes() < 2 || n.AliveCount() == n.NumNodes() {
		return // no admission here, or a full house: requests are stale or bogus
	}
	// Nobody receives on this server's behalf while it sits at a step edge,
	// so pull any frames already delivered to the transport inbox — control
	// frames land in the poll queue, data frames are stashed for the step's
	// ordinary receives.
	n.CtlProbe()
	for {
		p := n.CtlPoll()
		if p == nil {
			return
		}
		ver, rank, _, ok := decodeJoinReq(p)
		if !ok || rank < 0 || rank >= n.NumNodes() || rank == n.ID() {
			continue // malformed or nonsense: drop, the joiner retries
		}
		if ver != joinProtoVersion {
			_ = n.CtlSend(rank, appendJoinResp(nil, rank, false))
			continue
		}
		n.DeclareJoined(rank) // idempotent for an already-live rank
		_ = n.CtlSend(rank, appendJoinResp(nil, rank, true))
	}
}

// ErrJoinTimeout marks a Join (or scripted rejoin) whose handshake never
// completed: no live server admitted the joiner before the deadline.
var ErrJoinTimeout = errors.New("core: join handshake timed out")

// ErrJoinRejected marks a join the coordinator refused — in practice a
// handshake version mismatch.
var ErrJoinRejected = errors.New("core: join rejected by coordinator")

// joinDeadline derives the handshake's hard deadline from the failure
// detector's timeout: long enough to span several detection rounds, with a
// floor for sessions running a very short (or zero) timeout.
func (se *Session) joinDeadline() time.Duration {
	d := 4 * se.cfg.FailureTimeout
	if d < 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

// Join readmits a dead server into the live session and returns once it is
// a live member again; joining a live rank is a no-op. A serial session
// admits it at a superstep edge after a handshake: mid-job, it is streamed
// the newest consistent checkpoint and replays in the background (awaited
// by the in-flight Submit), which needs a job that checkpoints under
// All-in-All replication; between jobs, it reclaims its base tiles. A
// multi-tenant session admits it only between jobs: admission pauses until
// the in-flight jobs finish without it, so the wait is bounded only by ctx
// and Close. Cancelling ctx abandons the join.
func (se *Session) Join(ctx context.Context, rank int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return se.joinServer(ctx, rank, false)
}

// scriptedRejoin is the fault plan's entry point (compiledFaults.onRejoin):
// it runs the same protocol as Join in the background. Admission pauses
// before it returns, on the firing runner, so in a multi-tenant session no
// Submit is admitted ahead of the join. The returned channel closes when the
// rejoin has completed (or given up), so a serial runner that fired the
// coordinate can hold its step edge open for the admission (awaitRejoin) —
// without that, a short job could run to completion before the handshake
// ever lands.
func (se *Session) scriptedRejoin(f Rejoin) <-chan struct{} {
	se.sched.pause()
	done := make(chan struct{})
	go func() {
		defer close(done)
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
		_ = se.joinServer(context.Background(), f.Server, f.FailMidTransfer)
	}()
	return done
}

// awaitRejoin parks the runner that fired a scripted rejoin at its step
// edge until the handshake completes, polling the control plane so the
// admission can land right here. Parking is essential for determinism (and
// for short jobs at all): the joiner's request needs a live server sitting
// at a step edge, and the firing runner is by definition at one. Peers
// stalled on this runner's traffic tolerate the pause the same way they
// tolerate any slow step, and the handshake resolves in milliseconds — the
// parked poll admits the joiner on its next spin. A runner that cannot admit
// anyone does not park: a multi-tenant join lands between jobs, and a serial
// job that cannot recover leaves the handshake to fail by deadline.
func (s *server) awaitRejoin(done <-chan struct{}) {
	if !s.admitsJoins() {
		return
	}
	tick := time.NewTicker(200 * time.Microsecond)
	defer tick.Stop()
	for {
		s.pollJoinRequests()
		select {
		case <-done:
			return
		case <-tick.C:
		}
	}
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

// joinServer is the joiner side shared by Join and the scripted rejoin: the
// handshake in a serial session, the between-jobs admission in a
// multi-tenant one. failMidTransfer scripts the hardening case: get
// admitted, then die again before restoring any state.
func (se *Session) joinServer(ctx context.Context, rank int, failMidTransfer bool) error {
	if rank < 0 || rank >= se.cfg.NumServers {
		return fmt.Errorf("core: Join of invalid server rank %d", rank)
	}
	if err := se.joinRefusal(); err != nil {
		return err
	}
	n := se.cl.Node(rank)
	if n.Alive(rank) {
		return nil
	}
	var err error
	if se.multi {
		err = se.joinBetweenJobs(ctx, rank)
	} else {
		err = se.handshake(ctx, rank)
	}
	if err != nil {
		return err
	}
	if failMidTransfer {
		// Hardening script: the handshake succeeded, the epoch grew — and
		// the joiner dies again before restoring any state. Crash() declares
		// it dead immediately, so survivors' recovery pass re-acknowledges
		// the shrunk view at once instead of waiting out a marker stall; the
		// running step is not disturbed beyond the recovery it was already
		// performing.
		n.Crash()
		return ErrInjectedFault
	}
	se.reviveServer(rank)
	return nil
}

// joinBetweenJobs admits rank into a multi-tenant session. Admission pauses
// so no new job starts; the in-flight jobs finish on the shrunk membership,
// which recovery already made whole; tryDirectAdmit lands the join once none
// is left; and admission resumes, so the joiner serves from the next job.
// Admitting only between jobs keeps one runner per job on every node. The
// wait is bounded by ctx and by Close, not by the handshake deadline: the
// longest in-flight job sets it.
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

// handshake is a serial session's joiner loop: bounded retries with
// exponential backoff + jitter under a hard deadline, and a direct-admission
// fast path for an idle session (between jobs no live runner polls the
// control plane). It returns once rank is a live member.
func (se *Session) handshake(ctx context.Context, rank int) error {
	n := se.cl.Node(rank)
	deadline := time.Now().Add(se.joinDeadline())
	backoff := joinBackoffBase
	var attempt uint32
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return ErrJoinTimeout
		}
		if err := se.joinRefusal(); err != nil {
			return err
		}
		// Idle session: no runner will poll the control plane until the
		// next Submit, so the controller admits directly — under the job
		// registry's lock, so a racing Submit either sees the grown
		// membership or is registered first and defers us to its runners.
		if se.tryDirectAdmit(rank) || n.Alive(rank) { // or a runner's poll admitted us
			return nil
		}
		// Replicate the request to every live rank, coordinator first: a
		// mid-step server may be stalled on a peer and unable to poll, so
		// the joiner cannot know which rank will reach a step edge next.
		// Admission is idempotent, so duplicate accepts are harmless.
		attempt++
		req := appendJoinReq(nil, rank, attempt)
		sent := 0
		for i := 0; i < se.cfg.NumServers; i++ {
			if i == rank || !se.cl.Alive(i) {
				continue
			}
			if err := n.CtlSend(i, req); err == nil {
				sent++
			}
		}
		if sent == 0 {
			return fmt.Errorf("core: no live coordinator to join through")
		}
		// Wait out one backoff interval for the accept (or for the alive
		// flag to flip — the authoritative admission signal).
		wait := joinJitter(backoff, rank, attempt)
		if until := time.Until(deadline); wait > until {
			wait = until
		}
		waitEnd := time.Now().Add(wait)
		for time.Now().Before(waitEnd) {
			if n.Alive(rank) {
				return nil
			}
			slice := 5 * time.Millisecond
			if rem := time.Until(waitEnd); rem < slice {
				slice = rem
			}
			if slice <= 0 {
				break
			}
			p, err := n.CtlRecv(slice)
			if err != nil || p == nil {
				continue
			}
			ver, r, accept, ok := decodeJoinResp(p)
			if !ok || r != rank {
				continue
			}
			if !accept || ver != joinProtoVersion {
				return ErrJoinRejected
			}
			// Accepted: the admission may take one more instant to become
			// visible; the outer loop's Alive check picks it up.
			for !n.Alive(rank) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n.Alive(rank) {
				return nil
			}
		}
		if backoff *= 2; backoff > joinBackoffCap {
			backoff = joinBackoffCap
		}
	}
}

// tryDirectAdmit admits rank without a runner's help when no job is in
// flight. Holding the registry lock across the declaration and revival
// closes the race with a concurrent Submit: a job registered before we
// looked makes the caller retry (or, serially, admit through the job's
// step-edge polls); one registered after observes the grown membership
// (and, on the revived node, a cleared death flag) from its very first step.
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

// reviveServer flips a just-admitted node from zombie back to participant.
func (se *Session) reviveServer(rank int) {
	se.regMu.Lock()
	se.reviveLocked(rank)
	se.regMu.Unlock()
}

// reviveLocked (caller holds regMu) clears the node's death flag, boots a
// fresh frame router on a multi-tenant node (the old one's done channel is
// permanently closed), and spawns a replacement runner for every in-flight
// job — those the dead node consumed as zombies, and any it hasn't consumed
// yet (the ledger entry makes the normal path consume them as zombies, so
// exactly one runner per job survives). Only a serial session has in-flight
// jobs here: a multi-tenant node is revived between jobs. The death-flag
// flip and the ledger claims are one critical section under zMu, pairing
// with runJob's claimIfZombie.
func (se *Session) reviveLocked(rank int) {
	sv := se.servers[rank]
	sh := sv.shared
	if !sh.dead.Load() {
		return // already revived (rechecked under zMu below)
	}
	// Quiesce before reuse: the killed runner — and, in a serial session,
	// its deliberately-unjoined receive goroutine — may still be unwinding
	// on this very server struct and draining the node's transport inbox.
	// Replacement runners must not start until those writes have a
	// happens-before edge to the reads that follow. Waiting here (outside
	// zMu) is safe: the dying runner's exit path needs only zMu, never
	// regMu, and it is guaranteed to finish — the membership interrupt its
	// death provoked, or the crashed transport, unwinds it.
	sh.quiesceWait()
	sh.zMu.Lock()
	if !sh.dead.Load() {
		sh.zMu.Unlock()
		return // already revived (idempotent under racing admissions)
	}
	// The kill that felled this server must not fire again when the
	// replacement runners replay the superstep it died at.
	sv.faults.disarmKills(rank)
	// Count the comeback before any replacement runner (or later job's
	// clone) snapshots the node's counters into its stats.
	sh.joins.Add(1)
	if old := sh.router.Load(); old != nil {
		old.halt()
		r := newFrameRouter(sv.node, se.routerCap, se.noteFatal)
		sh.router.Store(r)
		go r.run()
	}
	if sh.zombies == nil {
		sh.zombies = make(map[*job]bool)
	}
	jobs := make([]*job, 0, len(se.inflight))
	for jb := range se.inflight {
		sh.zombies[jb] = true // the normal path must not also run it
		jobs = append(jobs, jb)
	}
	for jb := range sh.zombies {
		if _, ok := se.inflight[jb]; !ok {
			delete(sh.zombies, jb) // finished while we were dead
		}
	}
	sh.dead.Store(false)
	sh.zMu.Unlock()

	for _, jb := range jobs {
		if !jb.grp.tryAdd() {
			continue // the job completed without us in the meantime
		}
		sh.quiesceEnter() // replacement runner holds the gate like any other
		go func(jb *job) {
			fatal := sv.rejoinJob(jb)
			sh.quiesceExit()
			if fatal != nil {
				se.noteFatal(fatal)
			}
			jb.grp.doneOne()
		}(jb)
	}
}

// rejoinJob is runJob's twin for a serial session's replacement runner: the
// server rejoins a job already in flight, so instead of starting the superstep loop at step
// 0 it enters the recovery protocol needy — advertising that it holds no
// state, receiving the consensus checkpoint from a donor, re-adopting its
// own tiles — and replays from restore+1. Stats, zombie exits and error
// handling mirror runJob.
func (s *server) rejoinJob(jb *job) (fatal error) {
	defer func() {
		s.prog, s.ctx, s.progress, s.result = nil, nil, nil, nil
		// recoverFromFailure rebuilt the sender pipeline; tear it down on
		// the way out exactly as runJob's own defer does.
		if s.sender != nil {
			s.sender.Close()
			s.sender = nil
		}
	}()
	s.prog = jb.prog
	s.ctx = jb.ctx
	s.maxSteps = jb.maxSteps
	s.lockstep = jb.lockstep
	s.msgCodec = jb.codec
	s.progress = jb.progress
	s.result = jb.res
	s.tilesIn, s.tilesOut = 0, 0
	s.ckptEvery = jb.ckptEvery
	s.ckptCount, s.ckptBytes = 0, 0
	s.tilesAdopted, s.recoveries, s.recoveryTime = 0, 0, 0
	s.rebal = nil
	if err := s.clearCheckpoints(); err != nil {
		jb.errs[s.node.ID()] = err
		return err
	}
	for i := range s.staged {
		s.staged[i] = s.staged[i][:0]
	}
	s.initJobState()
	s.jobsRun++
	s.needCkpt = true
	if s.queueCap <= 0 {
		s.queueCap = s.cfg.SendQueueCap
		if s.queueCap <= 0 {
			s.queueCap = 32
			s.adaptiveQueue = true
		}
	}
	// recoverFromFailure builds the sender after the protocol converges;
	// no sender must exist while stale state could still be flushed.
	restore, err := s.recoverFromFailure()
	if err != nil {
		if errors.Is(err, errServerKilled) {
			jb.steps[s.node.ID()] = nil
			s.markZombie(jb)
			return nil
		}
		jb.errs[s.node.ID()] = err
		return err
	}

	loopStart := time.Now()
	steps, err := s.superstepLoopFrom(restore + 1)
	if err != nil {
		if errors.Is(err, errServerKilled) {
			s.markZombie(jb)
			return nil
		}
		var jc jobCancelled
		if errors.As(err, &jc) {
			jb.cancels[s.node.ID()] = jc.cause
			return nil
		}
		jb.errs[s.node.ID()] = err
		return err
	}
	jb.steps[s.node.ID()] = steps
	atomicMax(&jb.loopMax, int64(time.Since(loopStart)))

	if err := s.collectResult(); err != nil {
		if errors.Is(err, errServerKilled) {
			jb.steps[s.node.ID()] = nil
			s.markZombie(jb)
			return nil
		}
		jb.errs[s.node.ID()] = err
		return err
	}
	if s.pf != nil {
		s.pf.drain()
	}
	s.fillServerStats()
	return nil
}
