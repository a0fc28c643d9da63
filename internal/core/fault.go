package core

// Fault injection (see docs/ARCHITECTURE.md, "Checkpointing & recovery").
// A FaultPlan scripts deterministic failures into a session: server crashes
// and hangs pinned to a (server, superstep, point) coordinate, disk-op
// failures counted per server and operation, and wire-frame drops or
// duplications counted per (from, to) link. The plan compiles into the
// hooks the lower layers already expose — disk.Store.SetFailureHook and
// cluster.Cluster.SetWireHook — plus the engine's own kill points, so the
// same plan replays identically on the Inproc and TCP transports.

import (
	"errors"
	"sync/atomic"

	"repro/internal/cluster"
)

// ErrInjectedFault marks every failure a FaultPlan manufactures, so tests
// can tell scripted damage from a genuine bug with errors.Is.
var ErrInjectedFault = errors.New("core: injected fault")

// KillPoint locates a scripted crash within its superstep.
type KillPoint int

const (
	// KillAtStepStart crashes the server before it processes any tile of
	// the step.
	KillAtStepStart KillPoint = iota
	// KillMidStep crashes the server after it computed and broadcast the
	// step's update batches but before it finished receiving its peers' —
	// its frames may be on the wire or already absorbed elsewhere.
	KillMidStep
	// KillAtBarrier crashes the server after it absorbed the step's
	// traffic, right before the step-end barrier vote.
	KillAtBarrier
)

// Kill crashes (or hangs) one server at one superstep.
type Kill struct {
	// Server is the victim's rank.
	Server int
	// Step is the 0-based superstep at which the fault fires.
	Step int
	// Point locates the fault within the step.
	Point KillPoint
	// Hang, when true, makes the victim stop participating without
	// declaring itself dead — the fail-stop-silent case survivors must
	// detect by timeout rather than be told about.
	Hang bool
}

// DiskFault fails one server's m-th disk operation of a given kind.
type DiskFault struct {
	// Server is the victim's rank.
	Server int
	// Op names the store operation to fail: "read", "write", "remove",
	// "exists" or "list". Empty matches every operation.
	Op string
	// AfterOps is how many matching operations succeed before the fault
	// fires; 0 fails the first one.
	AfterOps int
	// Err overrides the injected error; nil means ErrInjectedFault.
	Err error
}

// Rejoin scripts a dead server's return: at the start of superstep Step
// (as observed by any live server) the session's join controller requests
// the join for Server, exactly as Session.Join. The join lands between
// jobs: the in-flight job finishes without the server (listing it in
// Result.DeadServers), and the server serves from the next Submit. The
// server must already be dead when the coordinate fires (pair it with an
// earlier Kill); a rejoin for a live server is a no-op.
type Rejoin struct {
	// Server is the rank that comes back.
	Server int
	// Step is the 0-based superstep at whose start the rejoin is requested.
	Step int
}

// WireFault drops or duplicates one cross-server frame.
type WireFault struct {
	// From is the sending rank.
	From int
	// To is the receiving rank; -1 matches any destination.
	To int
	// Frame is how many matching frames pass before the fault fires;
	// 0 hits the first one.
	Frame int
	// Action is what happens to the matched frame (WireDrop or
	// WireDuplicate; WireDeliver makes the entry a no-op).
	Action cluster.WireAction
}

// FaultPlan scripts failures into one session. The zero value injects
// nothing. Plans are consumed at Open; each entry fires at most once.
type FaultPlan struct {
	Kills   []Kill
	Rejoins []Rejoin
	Disk    []DiskFault
	Wire    []WireFault
}

// empty reports whether the plan injects nothing.
func (p *FaultPlan) empty() bool {
	return p == nil || (len(p.Kills) == 0 && len(p.Rejoins) == 0 &&
		len(p.Disk) == 0 && len(p.Wire) == 0)
}

// compiledFaults is a FaultPlan lowered onto atomic one-shot counters so
// the hooks can run on any goroutine without locks.
type compiledFaults struct {
	kills   []killState
	rejoins []rejoinState
	disk    []diskFaultState
	wire    []wireFaultState

	// onRejoin is the session's join controller, invoked when a scripted
	// Rejoin coordinate fires. It starts the join in the background. Wired
	// by Open.
	onRejoin func(Rejoin)
}

type killState struct {
	f Kill
	// fired records that some runner hit the coordinate; spent retires the
	// kill when its server is revived. The two are separate because one kill
	// must fell *every* runner of its server (a hung server's jobs all stop,
	// and each job's runner queries the coordinate independently), yet must
	// not fire again when the next job replays the same superstep.
	fired atomic.Bool
	spent atomic.Bool
}

type rejoinState struct {
	f    Rejoin
	done atomic.Bool
}

type diskFaultState struct {
	f    DiskFault
	seen atomic.Int64 // matching ops observed so far
	done atomic.Bool
}

type wireFaultState struct {
	f    WireFault
	seen atomic.Int64
	done atomic.Bool
}

// compileFaults lowers a plan. Returns nil for an empty plan.
func compileFaults(p *FaultPlan) *compiledFaults {
	if p.empty() {
		return nil
	}
	cf := &compiledFaults{}
	cf.kills = make([]killState, len(p.Kills))
	for i, k := range p.Kills {
		cf.kills[i].f = k
	}
	cf.rejoins = make([]rejoinState, len(p.Rejoins))
	for i, r := range p.Rejoins {
		cf.rejoins[i].f = r
	}
	cf.disk = make([]diskFaultState, len(p.Disk))
	for i, f := range p.Disk {
		cf.disk[i].f = f
	}
	cf.wire = make([]wireFaultState, len(p.Wire))
	for i, f := range p.Wire {
		cf.wire[i].f = f
	}
	return cf
}

// setOnRejoin wires the session's join controller into the plan's scripted
// rejoins. Safe on a nil receiver (empty plan — nothing will ever fire).
func (cf *compiledFaults) setOnRejoin(fn func(Rejoin)) {
	if cf != nil {
		cf.onRejoin = fn
	}
}

// diskHook returns the failure hook implementing the plan's disk faults,
// chained in front of next (the user's own DiskFailureHook, possibly nil).
func (cf *compiledFaults) diskHook(next func(server int, op, name string) error) func(server int, op, name string) error {
	if cf == nil || len(cf.disk) == 0 {
		return next
	}
	return func(server int, op, name string) error {
		for i := range cf.disk {
			st := &cf.disk[i]
			if st.done.Load() || st.f.Server != server || (st.f.Op != "" && st.f.Op != op) {
				continue
			}
			if st.seen.Add(1)-1 == int64(st.f.AfterOps) && st.done.CompareAndSwap(false, true) {
				if st.f.Err != nil {
					return st.f.Err
				}
				return ErrInjectedFault
			}
		}
		if next != nil {
			return next(server, op, name)
		}
		return nil
	}
}

// wireHook returns the cluster wire hook implementing the plan's frame
// faults, or nil when there are none.
func (cf *compiledFaults) wireHook() func(from, to, size int) cluster.WireAction {
	if cf == nil || len(cf.wire) == 0 {
		return nil
	}
	return func(from, to, size int) cluster.WireAction {
		for i := range cf.wire {
			st := &cf.wire[i]
			if st.done.Load() || st.f.From != from || (st.f.To >= 0 && st.f.To != to) {
				continue
			}
			if st.seen.Add(1)-1 == int64(st.f.Frame) && st.done.CompareAndSwap(false, true) {
				return st.f.Action
			}
		}
		return cluster.WireDeliver
	}
}

// killAt returns the scripted kill for (server, step, point), if any. A
// kill fires for every runner that hits its coordinate — in a multi-tenant
// session each in-flight job's runner on the victim queries independently,
// and a hang must fell all of them — until the kill is spent: once the
// server is revived by a rejoin, the next job replays the same superstep
// numbers, and a spent kill keeps it from dying again at the coordinate that
// killed it (disarmKills).
func (cf *compiledFaults) killAt(server, step int, point KillPoint) (Kill, bool) {
	if cf == nil {
		return Kill{}, false
	}
	for i := range cf.kills {
		st := &cf.kills[i]
		k := st.f
		if k.Server != server || k.Step != step || k.Point != point || st.spent.Load() {
			continue
		}
		st.fired.Store(true)
		return k, true
	}
	return Kill{}, false
}

// disarmKills retires every fired kill of a just-revived server, so the
// next job cannot re-trigger the crash that removed it. Kills that have not
// fired yet stay armed — a plan may script a second kill at a later step.
func (cf *compiledFaults) disarmKills(server int) {
	if cf == nil {
		return
	}
	for i := range cf.kills {
		st := &cf.kills[i]
		if st.f.Server == server && st.fired.Load() {
			st.spent.Store(true)
		}
	}
}

// fireRejoins claims every scripted rejoin pinned to the start of step and
// hands each to the session's join controller. Any live server can hit the
// coordinate first (in a multi-tenant session even on different jobs whose
// step counters disagree); the one-shot makes exactly one of them fire it.
func (cf *compiledFaults) fireRejoins(step int) {
	if cf == nil || len(cf.rejoins) == 0 || cf.onRejoin == nil {
		return
	}
	for i := range cf.rejoins {
		st := &cf.rejoins[i]
		if st.f.Step == step && st.done.CompareAndSwap(false, true) {
			cf.onRejoin(st.f)
		}
	}
}
