// Package cluster simulates the small commodity cluster GraphH targets
// (§III-A, §V). The paper's engine parallelizes across servers with MPI,
// across cores with OpenMP, and broadcasts vertex updates over a ZMQ-based
// channel. Here a cluster is N nodes hosted in one process; each node runs
// its server program on its own goroutine (the MPI rank), fans work out to a
// worker pool (the OpenMP threads), and communicates over a byte-counted
// message transport with two interchangeable implementations:
//
//   - Inproc: channel-based, zero-copy-ish, for tests and benchmarks;
//   - TCP: real loopback sockets with length-prefixed frames, proving the
//     engine is transport-agnostic and exercising real serialization.
//
// The transport optionally models per-node NIC bandwidth the same way
// package disk models HDD bandwidth, so network-bound behaviour (Figure 8)
// is observable at laptop scale.
//
// On top of the blocking transport sits Sender, the asynchronous broadcast
// pipeline of §IV-C's compute/communication overlap: one bounded queue and
// one drain goroutine per destination, cycling pooled refcounted wire
// buffers (Buf). Ownership invariant: a caller owns a Buf from Acquire
// until Send/Broadcast/Release, after which it must not touch it — the
// refcount covers every destination before the first enqueue and the last
// write returns the buffer to the pool. Flush drains all queues before the
// BSP barrier so no message is ever stranded behind it; an asynchronous
// send error aborts the cluster so blocked peers unwind. The full protocol
// is documented in docs/ARCHITECTURE.md.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed is wrapped by transport operations that fail because the
// cluster was shut down (possibly by another node aborting). Callers can
// use errors.Is to distinguish secondary shutdown noise from the root
// cause of a failed run.
var ErrClosed = errors.New("cluster: transport closed")

// ErrMembershipChanged interrupts barrier and receive calls when a node has
// been declared dead since the caller last acknowledged the membership view
// (AckMembership). It is level-triggered: every blocking operation keeps
// failing with it until the caller acknowledges the new epoch, so a node
// cannot accidentally mix traffic from two membership views.
var ErrMembershipChanged = errors.New("cluster: membership changed")

// ErrRecvStall is returned by the stall-aware receive paths when no message
// arrived within the failure-detection timeout. The caller — who knows
// which peers still owe it traffic — decides whether to declare them dead.
var ErrRecvStall = errors.New("cluster: receive stalled past failure-detection timeout")

// ErrDuplicateVote is returned by a barrier when one rank arrives twice in
// the same generation — two runners voting in one rank's slot. The barrier
// refuses the second arrival instead of counting the rank twice; the error
// names the rank and the membership epoch.
var ErrDuplicateVote = errors.New("cluster: duplicate barrier vote")

// ErrBarrierBroken is returned by the voteless barriers (BarrierErr,
// JobBarrierErr) once the cluster has aborted: the barrier is broken and
// nobody is synchronized with anybody. It matches ErrClosed under
// errors.Is, so root-cause selection treats it as shutdown noise. The vote
// forms keep reporting an abort as a unanimous true vote.
var ErrBarrierBroken = fmt.Errorf("cluster: barrier broken: %w", ErrClosed)

// errCancelled is returned by the transports' recv when the caller's cancel
// channel fires before a message arrives. It never escapes the package:
// the ctx-aware Node methods translate it to the context's own error.
var errCancelled = errors.New("cluster: recv cancelled")

// TransportKind selects the communication substrate.
type TransportKind int

const (
	// Inproc connects nodes with Go channels.
	Inproc TransportKind = iota
	// TCP connects nodes with loopback TCP sockets.
	TCP
)

// String names the transport for experiment output.
func (k TransportKind) String() string {
	switch k {
	case Inproc:
		return "inproc"
	case TCP:
		return "tcp"
	default:
		return fmt.Sprintf("transport(%d)", int(k))
	}
}

// Config describes a simulated cluster.
type Config struct {
	// NumNodes is N, the number of servers.
	NumNodes int
	// Transport selects the substrate; default Inproc.
	Transport TransportKind
	// NetBandwidth, if positive, throttles each node's outbound traffic to
	// this many bytes per second (the 10 Gbps NIC of the paper's testbed
	// would be 1.25e9).
	NetBandwidth int64
	// InboxCapacity bounds each node's receive queue; 0 means 4096.
	InboxCapacity int
	// FailureTimeout, if positive, enables failure detection: a barrier
	// waiter that sees no progress for this long accuses the non-arrived
	// nodes, and the stall-aware receive paths (RecvStreamWhile) report
	// ErrRecvStall after an inter-message gap of this length. Zero disables
	// detection, restoring the block-forever behaviour.
	FailureTimeout time.Duration
}

// WireAction is a fault-injection verdict for one outbound frame.
type WireAction int

const (
	// WireDeliver lets the frame through untouched (the default).
	WireDeliver WireAction = iota
	// WireDrop silently discards the frame: the sender sees success, the
	// receiver sees nothing — a lost packet past the transport's own
	// reliability, or a crash between send and delivery.
	WireDrop
	// WireDuplicate delivers the frame twice, modelling a retransmission
	// race. Counted protocols must dedupe to survive it.
	WireDuplicate
)

// Metrics captures one node's accumulated traffic. The last three fields
// describe the node's pipelined Sender, when it uses one: how often an
// Enqueue found its destination queue full (a compute worker stalled on
// backpressure), the deepest any destination queue ever got, and how many
// messages went through the async path at all.
type Metrics struct {
	BytesSent int64
	BytesRecv int64
	MsgsSent  int64
	MsgsRecv  int64

	SendStalls     int64
	QueueHighWater int64
	Enqueued       int64
}

// message is the unit moved by transports. payload is the received bytes;
// pool, when non-nil, is the pooled holder backing payload — whoever
// finishes with the message returns it via putWireBuf (the receive calls do
// this after the callback).
type message struct {
	from    int
	payload []byte
	pool    *[]byte
}

// transport is the substrate interface shared by Inproc and TCP. recv
// blocks until a message for the node arrives, the transport closes, or
// one of the optional interrupt channels fires: cancel (errCancelled),
// memb — closed when membership changes — (ErrMembershipChanged), or
// stall — a timer channel — (ErrRecvStall). A pending message always wins
// over a racing cancel, stall, or close, so none of them drops delivered
// traffic; a membership interrupt deliberately wins over a pending message,
// because the caller must re-acknowledge the view before it can tell which
// queued frames are still meaningful.
type transport interface {
	send(from, to int, payload []byte) error
	recv(node int, cancel, memb <-chan struct{}, stall <-chan time.Time) (message, error)
	close() error
}

// recvFromInbox is the receive path shared by both transports: block until
// a message, a cancel, a membership change, a stall timeout, or shutdown.
// Nil interrupt channels never fire, so the classic block-forever receive
// passes nil for all three.
func recvFromInbox(inbox <-chan message, cancel, memb <-chan struct{}, stall <-chan time.Time, done <-chan struct{}) (message, error) {
	select {
	case msg := <-inbox:
		return msg, nil
	case <-memb:
		// Do NOT consume a pending message: it may be from a node that the
		// new membership view declares dead, and only a caller that has
		// acknowledged the view can filter it correctly.
		return message{}, ErrMembershipChanged
	case <-cancel:
		select {
		case msg := <-inbox:
			return msg, nil
		default:
		}
		return message{}, errCancelled
	case <-stall:
		select {
		case msg := <-inbox:
			return msg, nil
		default:
		}
		return message{}, ErrRecvStall
	case <-done:
		select {
		case msg := <-inbox:
			return msg, nil
		default:
		}
		return message{}, fmt.Errorf("cluster: recv: %w", ErrClosed)
	}
}

// wirePool recycles inbound payload buffers. Both transports materialize
// one buffer per received message (the inproc copy, the TCP frame read);
// cycling them through this pool makes the steady-state receive path
// allocation-free. Holders keep their grown capacity, so after warm-up a
// superstep's worth of receives reuses the same few buffers.
var wirePool = sync.Pool{New: func() any { return new([]byte) }}

// getWireBuf returns an n-byte payload slice backed by a pooled holder.
func getWireBuf(n int) ([]byte, *[]byte) {
	h := wirePool.Get().(*[]byte)
	if cap(*h) < n {
		*h = make([]byte, n)
	}
	return (*h)[:n], h
}

// putWireBuf recycles a holder obtained from getWireBuf. nil is a no-op so
// callers can release unconditionally.
func putWireBuf(h *[]byte) {
	if h != nil {
		wirePool.Put(h)
	}
}

// Cluster is a set of N simulated server nodes.
type Cluster struct {
	cfg   Config
	tr    transport
	bar   *reusableBarrier
	sent  []atomic.Int64
	recvd []atomic.Int64
	msgsS []atomic.Int64
	msgsR []atomic.Int64

	// recvBusy[i] counts node i's receives in progress on the stall-aware
	// path (RecvStreamWhile). The main barrier's failure detector never
	// accuses such a node: it is live, and its own stall timer accuses
	// whichever peer it is waiting for.
	recvBusy []atomic.Int32

	// Pipelined-sender counters, indexed by node.
	stalls   []atomic.Int64
	queueHi  []atomic.Int64
	enqueued []atomic.Int64

	// netClock implements the shared outbound-bandwidth model per node.
	netMu    []sync.Mutex
	netBusy  []time.Time
	closedMu sync.Mutex
	closed   bool

	// Membership. alive[i] is false once node i has been declared dead;
	// epoch counts declarations. acked[i] is the epoch node i last
	// acknowledged via AckMembership — blocking operations of a node whose
	// acked lags the epoch fail with ErrMembershipChanged until it
	// re-acknowledges, so no node mixes traffic across membership views.
	// epochCh holds a chan struct{} closed (and replaced) on each
	// declaration, waking blocked receivers.
	alive    []atomic.Bool
	aliveCnt atomic.Int32
	acked    []atomic.Uint64
	epochAt  atomic.Uint64
	epochCh  atomic.Value // chan struct{}
	membMu   sync.Mutex

	// wireHook, when set, vets every outbound cross-node frame — the
	// fault-injection hook. Called from transport-writing goroutines, so it
	// must be safe for concurrent use.
	wireHook atomic.Value // func(from, to, size int) WireAction

	// jobBars holds one barrier per in-flight job of a multi-tenant session,
	// keyed by job ID and created lazily on first use. Guarded by membMu so
	// creation, deposal on a death, and the break-on-abort sweep can never
	// miss each other; jobsBroken makes barriers created after an abort be
	// born broken.
	jobBars    map[uint32]*reusableBarrier
	jobsBroken bool
}

// New creates a cluster with the given configuration.
func New(cfg Config) (*Cluster, error) {
	if cfg.NumNodes < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 node, got %d", cfg.NumNodes)
	}
	if cfg.InboxCapacity <= 0 {
		cfg.InboxCapacity = 4096
	}
	c := &Cluster{
		cfg:      cfg,
		bar:      newReusableBarrier(cfg.NumNodes),
		recvBusy: make([]atomic.Int32, cfg.NumNodes),
		sent:     make([]atomic.Int64, cfg.NumNodes),
		recvd:    make([]atomic.Int64, cfg.NumNodes),
		msgsS:    make([]atomic.Int64, cfg.NumNodes),
		msgsR:    make([]atomic.Int64, cfg.NumNodes),
		stalls:   make([]atomic.Int64, cfg.NumNodes),
		queueHi:  make([]atomic.Int64, cfg.NumNodes),
		enqueued: make([]atomic.Int64, cfg.NumNodes),
		netMu:    make([]sync.Mutex, cfg.NumNodes),
		netBusy:  make([]time.Time, cfg.NumNodes),
		alive:    make([]atomic.Bool, cfg.NumNodes),
		acked:    make([]atomic.Uint64, cfg.NumNodes),
		jobBars:  make(map[uint32]*reusableBarrier),
	}
	for i := range c.alive {
		c.alive[i].Store(true)
	}
	c.bar.receiving = c.recvBusy
	c.aliveCnt.Store(int32(cfg.NumNodes))
	c.epochCh.Store(make(chan struct{}))
	var err error
	switch cfg.Transport {
	case Inproc:
		c.tr = newInprocTransport(cfg.NumNodes, cfg.InboxCapacity)
	case TCP:
		c.tr, err = newTCPTransport(cfg.NumNodes, cfg.InboxCapacity)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("cluster: unknown transport %v", cfg.Transport)
	}
	return c, nil
}

// NumNodes returns N.
func (c *Cluster) NumNodes() int { return c.cfg.NumNodes }

// Alive reports whether node i is a live member.
func (c *Cluster) Alive(i int) bool { return c.alive[i].Load() }

// Node returns the handle for node i.
func (c *Cluster) Node(i int) *Node {
	if i < 0 || i >= c.cfg.NumNodes {
		panic(fmt.Sprintf("cluster: no node %d in %d-node cluster", i, c.cfg.NumNodes))
	}
	return &Node{c: c, id: i}
}

// Close shuts the transport down. Pending receives return errors.
func (c *Cluster) Close() error {
	c.closedMu.Lock()
	defer c.closedMu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.tr.close()
}

// SetWireHook installs (or clears, with nil) the fault-injection hook
// consulted for every outbound cross-node frame. The hook runs on whatever
// goroutine performs the send — compute workers, Sender drains — so it must
// be safe for concurrent use.
func (c *Cluster) SetWireHook(hook func(from, to, size int) WireAction) {
	if hook == nil {
		c.wireHook.Store((func(from, to, size int) WireAction)(nil))
		return
	}
	c.wireHook.Store(hook)
}

func (c *Cluster) loadWireHook() func(from, to, size int) WireAction {
	if v := c.wireHook.Load(); v != nil {
		if hook, _ := v.(func(from, to, size int) WireAction); hook != nil {
			return hook
		}
	}
	return nil
}

// declareDead marks rank dead, advances the membership epoch, resets the
// in-flight barrier generation, and wakes every blocked receiver and
// barrier waiter. Idempotent per rank.
func (c *Cluster) declareDead(rank int) {
	c.membMu.Lock()
	if !c.alive[rank].Load() {
		c.membMu.Unlock()
		return
	}
	c.alive[rank].Store(false)
	c.aliveCnt.Add(-1)
	epoch := c.epochAt.Add(1)
	old := c.epochCh.Load().(chan struct{})
	c.epochCh.Store(make(chan struct{}))
	// Depose inside membMu so a node can never observe the new epoch via
	// AckMembership while the barrier still carries the old one. Every
	// per-job barrier learns of the death the same instant.
	c.bar.depose(rank, epoch)
	for _, b := range c.jobBars {
		b.depose(rank, epoch)
	}
	c.membMu.Unlock()
	close(old)
}

// declareJoined is declareDead's inverse: it re-admits rank as a live
// member, advances the membership epoch (growth and shrink share one
// counter — any change invalidates every unacknowledged view), reinstates
// the rank in the main and per-job barriers, and wakes every blocked
// receiver and barrier waiter so they re-acknowledge the grown view.
// Idempotent per rank.
func (c *Cluster) declareJoined(rank int) {
	c.membMu.Lock()
	if c.alive[rank].Load() {
		c.membMu.Unlock()
		return
	}
	c.alive[rank].Store(true)
	c.aliveCnt.Add(1)
	epoch := c.epochAt.Add(1)
	old := c.epochCh.Load().(chan struct{})
	c.epochCh.Store(make(chan struct{}))
	// Reinstate inside membMu, mirroring declareDead's depose: no node can
	// observe the grown epoch via AckMembership while any barrier still
	// carries the old member count.
	c.bar.reinstate(rank, epoch)
	for _, b := range c.jobBars {
		b.reinstate(rank, epoch)
	}
	c.membMu.Unlock()
	close(old)
}

// jobBarrier returns the barrier for job, creating it on first use with the
// current membership view (a job admitted after a death synchronizes only
// the survivors) and the current epoch. A barrier requested after the
// cluster aborted is born broken, mirroring the main barrier's state.
func (c *Cluster) jobBarrier(job uint32) *reusableBarrier {
	c.membMu.Lock()
	defer c.membMu.Unlock()
	if b, ok := c.jobBars[job]; ok {
		return b
	}
	b := newReusableBarrier(c.cfg.NumNodes)
	for i := range b.alive {
		if !c.alive[i].Load() {
			b.alive[i] = false
			b.n--
		}
	}
	b.epoch = c.epochAt.Load()
	b.broken = c.jobsBroken
	c.jobBars[job] = b
	return b
}

// ReleaseJobBarrier forgets the barrier for a completed job. Callers must
// ensure no node will synchronize on the job again (a later request with the
// same ID would create a fresh barrier and hang its first waiter).
func (c *Cluster) ReleaseJobBarrier(job uint32) {
	c.membMu.Lock()
	delete(c.jobBars, job)
	c.membMu.Unlock()
}

// JobBarrierCount reports how many per-job barriers are currently live —
// the leak observable: after every submitted job has been released the
// count must return to zero.
func (c *Cluster) JobBarrierCount() int {
	c.membMu.Lock()
	defer c.membMu.Unlock()
	return len(c.jobBars)
}

// MembershipEpoch returns the current membership epoch — the count of
// declarations (deaths and joins) since the cluster booted.
func (c *Cluster) MembershipEpoch() uint64 { return c.epochAt.Load() }
func (c *Cluster) NodeMetrics(i int) Metrics {
	return Metrics{
		BytesSent:      c.sent[i].Load(),
		BytesRecv:      c.recvd[i].Load(),
		MsgsSent:       c.msgsS[i].Load(),
		MsgsRecv:       c.msgsR[i].Load(),
		SendStalls:     c.stalls[i].Load(),
		QueueHighWater: c.queueHi[i].Load(),
		Enqueued:       c.enqueued[i].Load(),
	}
}

// TotalMetrics sums traffic over all nodes (QueueHighWater takes the max).
func (c *Cluster) TotalMetrics() Metrics {
	var m Metrics
	for i := 0; i < c.cfg.NumNodes; i++ {
		n := c.NodeMetrics(i)
		m.BytesSent += n.BytesSent
		m.BytesRecv += n.BytesRecv
		m.MsgsSent += n.MsgsSent
		m.MsgsRecv += n.MsgsRecv
		m.SendStalls += n.SendStalls
		m.Enqueued += n.Enqueued
		if n.QueueHighWater > m.QueueHighWater {
			m.QueueHighWater = n.QueueHighWater
		}
	}
	return m
}

// ResetMetrics zeroes all traffic counters (e.g. between supersteps).
func (c *Cluster) ResetMetrics() {
	for i := 0; i < c.cfg.NumNodes; i++ {
		c.sent[i].Store(0)
		c.recvd[i].Store(0)
		c.msgsS[i].Store(0)
		c.msgsR[i].Store(0)
		c.stalls[i].Store(0)
		c.queueHi[i].Store(0)
		c.enqueued[i].Store(0)
	}
}

// throttleNet models the sending node's NIC: it reserves transfer time on a
// shared virtual clock, so concurrent sends from one node queue up.
func (c *Cluster) throttleNet(node, n int) {
	bw := c.cfg.NetBandwidth
	if bw <= 0 || n == 0 {
		return
	}
	d := time.Duration(float64(n) / float64(bw) * float64(time.Second))
	c.netMu[node].Lock()
	now := time.Now()
	if c.netBusy[node].Before(now) {
		c.netBusy[node] = now
	}
	c.netBusy[node] = c.netBusy[node].Add(d)
	wakeAt := c.netBusy[node]
	c.netMu[node].Unlock()
	time.Sleep(time.Until(wakeAt))
}

// Node is one server's endpoint into the cluster.
type Node struct {
	c  *Cluster
	id int
}

// ID returns the node's rank in [0, NumNodes).
func (n *Node) ID() int { return n.id }

// NumNodes returns the cluster size.
func (n *Node) NumNodes() int { return n.c.cfg.NumNodes }

// Send delivers payload to node `to`. Sending to self is allowed and
// bypasses the network model. A frame to or from a dead node is silently
// dropped — the bytes vanish the way packets to a crashed host do — so
// teardown paths can keep draining queues without spraying errors.
func (n *Node) Send(to int, payload []byte) error {
	if to < 0 || to >= n.c.cfg.NumNodes {
		return fmt.Errorf("cluster: node %d sending to invalid node %d", n.id, to)
	}
	if !n.c.alive[n.id].Load() || !n.c.alive[to].Load() {
		return nil
	}
	dup := false
	if to != n.id {
		if hook := n.c.loadWireHook(); hook != nil {
			switch hook(n.id, to, len(payload)) {
			case WireDrop:
				return nil
			case WireDuplicate:
				dup = true
			}
		}
		n.c.throttleNet(n.id, len(payload))
		n.c.sent[n.id].Add(int64(len(payload)))
		n.c.msgsS[n.id].Add(1)
	}
	err := n.c.tr.send(n.id, to, payload)
	if dup && err == nil {
		n.c.sent[n.id].Add(int64(len(payload)))
		n.c.msgsS[n.id].Add(1)
		err = n.c.tr.send(n.id, to, payload)
	}
	return err
}

// Broadcast delivers payload to every other node — the ZMQ-style broadcast
// interface of §III-A. The payload is not copied; callers must not mutate
// it afterwards.
func (n *Node) Broadcast(payload []byte) error {
	for to := 0; to < n.c.cfg.NumNodes; to++ {
		if to == n.id {
			continue
		}
		if err := n.Send(to, payload); err != nil {
			return err
		}
	}
	return nil
}

// recvMsgStall is the node's one receive path: one transport recv plus
// traffic accounting, with optional cancel and stall-timer channels (nil
// never fires). The returned message may carry a pooled holder. It enforces
// the membership contract: a receiver whose acknowledged epoch lags the
// cluster's fails with ErrMembershipChanged (and is woken out of a blocked
// receive when a declaration happens), and frames from dead senders are
// filtered — they belong to the old membership view.
func (n *Node) recvMsgStall(cancel <-chan struct{}, stall <-chan time.Time) (message, error) {
	for {
		// Load the epoch channel before checking staleness: if a
		// declaration lands between the two, either we loaded the new
		// channel (and the epoch check below fails) or we loaded the old
		// one (which the declaration closes, waking us).
		membCh := n.c.epochCh.Load().(chan struct{})
		if n.c.epochAt.Load() != n.c.acked[n.id].Load() {
			return message{}, ErrMembershipChanged
		}
		m, err := n.c.tr.recv(n.id, cancel, membCh, stall)
		if err != nil {
			return message{}, err
		}
		if !n.c.alive[m.from].Load() {
			putWireBuf(m.pool)
			continue
		}
		n.c.recvd[n.id].Add(int64(len(m.payload)))
		n.c.msgsR[n.id].Add(1)
		return m, nil
	}
}

// RecvStream receives exactly count messages, invoking fn for each one as
// it arrives — the allocation-free counted receive: each payload's backing
// buffer is recycled into the receive pool the moment fn returns, so fn
// must not retain the payload (copy what it needs). fn runs on the caller's
// goroutine, so a slow callback delays subsequent receives. A callback
// error stops the stream and is returned as-is.
func (n *Node) RecvStream(count int, fn func(from int, payload []byte) error) error {
	for i := 0; i < count; i++ {
		m, err := n.recvMsgStall(nil, nil)
		if err != nil {
			return err
		}
		err = fn(m.from, m.payload)
		putWireBuf(m.pool)
		if err != nil {
			return err
		}
	}
	return nil
}

// RecvStreamWhile receives messages until fn reports it is done, with the
// failure-detection timeout armed between messages: when FailureTimeout is
// positive and no message arrives for that long, the stream stops with
// ErrRecvStall and the caller — who knows which peers still owe traffic —
// decides whom to accuse. While the stream runs, the main barrier's failure
// detector does not suspect this node. Payload buffers are recycled after
// each callback (fn must not retain them). A nil ctx blocks without
// cancellation.
func (n *Node) RecvStreamWhile(ctx context.Context, fn func(from int, payload []byte) (done bool, err error)) error {
	n.c.recvBusy[n.id].Add(1)
	defer n.c.recvBusy[n.id].Add(-1)
	var cancel <-chan struct{}
	if ctx != nil {
		cancel = ctx.Done()
	}
	gap := n.c.cfg.FailureTimeout
	var timer *time.Timer
	var stall <-chan time.Time
	if gap > 0 {
		timer = time.NewTimer(gap)
		defer timer.Stop()
		stall = timer.C
	}
	for {
		m, err := n.recvMsgStall(cancel, stall)
		if err != nil {
			if errors.Is(err, errCancelled) {
				return ctx.Err()
			}
			return err
		}
		if timer != nil {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(gap)
		}
		done, err := fn(m.from, m.payload)
		putWireBuf(m.pool)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

// Metrics returns a snapshot of this node's traffic counters — the same
// data as Cluster.NodeMetrics, reachable from the node handle so a server
// program can observe its own backpressure signal mid-run (the adaptive
// send-queue sizing reads SendStalls/QueueHighWater between supersteps).
func (n *Node) Metrics() Metrics { return n.c.NodeMetrics(n.id) }

// Alive reports whether node i is still a cluster member.
func (n *Node) Alive(i int) bool { return n.c.alive[i].Load() }

// AliveCount returns the number of live members.
func (n *Node) AliveCount() int { return int(n.c.aliveCnt.Load()) }

// Crash removes this node from the cluster: its future sends are dropped,
// frames it already sent are filtered at receivers, and every live node's
// blocked barrier and receive calls fail with ErrMembershipChanged until
// they acknowledge the new view. The simulated power cut.
func (n *Node) Crash() { n.c.declareDead(n.id) }

// DeclareDead removes another node from the cluster — the failure
// detector's verdict, invoked by a survivor whose barrier or receive
// timed out on rank.
func (n *Node) DeclareDead(rank int) {
	if rank < 0 || rank >= n.c.cfg.NumNodes {
		return
	}
	n.c.declareDead(rank)
}

// DeclareJoined re-admits a dead rank as a live member under a new (grown)
// membership epoch. Every live node's blocked operations unwind with
// ErrMembershipChanged until they acknowledge the grown view. The engine
// declares a join only while no job is in flight, so the next job's nodes
// acknowledge the grown view at its start.
func (n *Node) DeclareJoined(rank int) {
	if rank < 0 || rank >= n.c.cfg.NumNodes {
		return
	}
	n.c.declareJoined(rank)
}

// MembershipEpoch returns the cluster's current membership epoch.
func (n *Node) MembershipEpoch() uint64 { return n.c.MembershipEpoch() }

// AckMembership acknowledges the current membership view, unblocking this
// node's transport operations after a declaration, and returns the epoch
// with a consistent snapshot of the alive set. Recovery protocols call it
// first: the returned view tells a node whether it is itself among the
// dead (fenced — a falsely-accused node must stop, not fight the quorum).
func (n *Node) AckMembership() (epoch uint64, alive []bool) {
	c := n.c
	c.membMu.Lock()
	epoch = c.epochAt.Load()
	alive = make([]bool, c.cfg.NumNodes)
	for i := range alive {
		alive[i] = c.alive[i].Load()
	}
	c.membMu.Unlock()
	c.acked[n.id].Store(epoch)
	return epoch, alive
}

// Barrier blocks until every node in the cluster has reached it — the BSP
// synchronization point of Algorithm 5 line 17.
func (n *Node) Barrier() { n.BarrierVote(false) }

// BarrierVote is Barrier with a one-bit consensus: every node contributes a
// flag, and all nodes leave the barrier observing the OR of every flag.
// This is how a cancelled job aborts deterministically at a step edge —
// each server votes its context's state and either all of them abort or
// none do, so no server can start the next superstep (and its counted
// message traffic) while another is unwinding. It also returns true when
// the cluster has aborted (broken barrier) or the membership changed;
// callers distinguish the cases by checking their context.
func (n *Node) BarrierVote(flag bool) bool {
	d, err := n.BarrierVoteErr(flag)
	if err != nil {
		return true
	}
	return d
}

// BarrierErr is Barrier with failure detection: it returns
// ErrMembershipChanged when a member died (or this node was fenced) and the
// caller must re-acknowledge the view before synchronizing again.
// A broken (aborted) barrier returns ErrBarrierBroken.
func (n *Node) BarrierErr() error {
	_, err := n.barrierVoteOnAcked(n.c.bar, false, n.c.acked[n.id].Load())
	return err
}

// BarrierVoteErr is BarrierVote with failure detection. When
// FailureTimeout is set and some member never arrives, the lowest-ranked
// waiting member accuses and deposes the absentees; every waiter then
// returns ErrMembershipChanged. A broken (aborted) barrier still returns
// (true, nil), mirroring BarrierVote.
func (n *Node) BarrierVoteErr(flag bool) (bool, error) {
	return brokenAsVote(n.barrierVoteOnAcked(n.c.bar, flag, n.c.acked[n.id].Load()))
}

// brokenAsVote maps a broken barrier onto the vote forms' contract: an
// aborting cluster looks like a unanimous true vote.
func brokenAsVote(d bool, err error) (bool, error) {
	if errors.Is(err, ErrBarrierBroken) {
		return true, nil
	}
	return d, err
}

// barrierVoteOnAcked runs the vote-with-failure-detection loop against one
// barrier — the main barrier or a per-job one; the accusation protocol is
// identical for both. The caller supplies its acknowledged epoch:
// multi-tenant job runners track their own (the node-level ack is shared
// with sibling runners, whose recovery must not mask a membership change
// from this one); the classic paths pass the node-level value.
func (n *Node) barrierVoteOnAcked(b *reusableBarrier, flag bool, acked uint64) (bool, error) {
	for {
		d, suspects, err := b.waitVote(n.id, flag, acked, n.c.cfg.FailureTimeout)
		if errors.Is(err, ErrRecvStall) {
			// This node is the designated accuser: depose the absentees and
			// re-enter — the now-stale acked epoch converts the retry into
			// the same ErrMembershipChanged every other waiter sees.
			for _, s := range suspects {
				n.c.declareDead(s)
			}
			continue
		}
		return d, err
	}
}

// JobBarrierVoteEpoch is BarrierVoteErr against the per-job barrier for
// job: only nodes synchronizing that job participate, so two interleaved
// jobs' step edges can never block each other or OR their halt votes
// together. The caller supplies its own acknowledged membership epoch (see
// barrierVoteOnAcked): a runner whose epoch lags the cluster's fails with
// ErrMembershipChanged even when a sibling runner on the same node has
// already acknowledged the change.
func (n *Node) JobBarrierVoteEpoch(job uint32, flag bool, acked uint64) (bool, error) {
	return brokenAsVote(n.barrierVoteOnAcked(n.c.jobBarrier(job), flag, acked))
}

// JobBarrierErr is the voteless form of JobBarrierVoteEpoch, the per-job
// counterpart of BarrierErr: a broken barrier returns ErrBarrierBroken.
func (n *Node) JobBarrierErr(job uint32, acked uint64) error {
	_, err := n.barrierVoteOnAcked(n.c.jobBarrier(job), false, acked)
	return err
}

// MembershipInterrupt returns a channel closed at the next membership
// declaration. Combined with MembershipStale it lets receive loops that
// block on something other than the transport (a multi-tenant session's
// per-job mailboxes) honor the same membership contract as recvMsgStall:
// load the channel first, then check staleness — a declaration landing
// between the two either closes the loaded channel or is seen by the check.
func (n *Node) MembershipInterrupt() <-chan struct{} {
	return n.c.epochCh.Load().(chan struct{})
}

// MembershipStale reports whether this node's acknowledged membership epoch
// lags the cluster's — i.e. whether a blocking operation would fail with
// ErrMembershipChanged right now.
func (n *Node) MembershipStale() bool {
	return n.c.epochAt.Load() != n.c.acked[n.id].Load()
}

// MembershipStaleAt is MembershipStale against a caller-tracked epoch — the
// runner-local counterpart for multi-tenant mailbox receives.
func (n *Node) MembershipStaleAt(acked uint64) bool {
	return n.c.epochAt.Load() != acked
}

// Run executes fn once per node, each on its own goroutine (the SPMD
// pattern of an MPI program), and blocks until every node returns. If any
// node fails, the cluster aborts — the barrier breaks and the transport
// closes — so peers blocked in a receive or Barrier unwind instead of hanging;
// Run then reports the root-cause error rather than the secondary
// ErrClosed failures the abort provokes.
func (c *Cluster) Run(fn func(n *Node) error) error {
	errs := make([]error, c.cfg.NumNodes)
	var wg sync.WaitGroup
	for i := 0; i < c.cfg.NumNodes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(c.Node(i))
			if errs[i] != nil {
				c.abort()
			}
		}(i)
	}
	wg.Wait()
	return FirstNodeError(errs)
}

// FirstNodeError selects the root cause from per-node errors (indexed by
// rank): the first error that is not shutdown noise, or — when an abort
// left only ErrClosed wreckage — the first of those. Cluster.Run applies
// it to its nodes' results; session-style callers that collect per-node
// errors themselves use it to report the same root cause Run would.
func FirstNodeError(errs []error) error {
	var first error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrClosed) {
			return fmt.Errorf("cluster: node %d: %w", i, err)
		}
		if first == nil {
			first = fmt.Errorf("cluster: node %d: %w", i, err)
		}
	}
	return first
}

// abort breaks the barriers — main and per-job — and closes the transport so
// that every node blocked in Barrier or a receive unwinds.
func (c *Cluster) abort() {
	c.membMu.Lock()
	c.jobsBroken = true
	for _, b := range c.jobBars {
		b.breakBarrier()
	}
	c.membMu.Unlock()
	c.bar.breakBarrier()
	c.Close()
}

// Abort tears the cluster down from outside Run's error path: barriers break
// (current and future waiters unwind) and the transport closes. Multi-tenant
// sessions use it when one job's fatal error must unwind every other job's
// blocked receives and barriers, exactly as a node error inside Run would.
func (c *Cluster) Abort() { c.abort() }

// reusableBarrier is a generation-counting N-party barrier with a break
// switch for aborted runs, a per-generation one-bit vote, and membership
// awareness: only live members count toward completion, a membership epoch
// bump resets the filling generation (every waiter unwinds with
// ErrMembershipChanged), and an optional timeout turns the barrier into a
// failure detector — the lowest-ranked arrived member accuses whoever
// never showed up and is not live in a counted receive.
type reusableBarrier struct {
	mu     sync.Mutex
	cond   *sync.Cond
	n      int // live member count
	count  int
	gen    uint64
	epoch  uint64
	broken bool

	alive   []bool
	arrived []bool
	// receiving, when set (the main barrier only), is the cluster's
	// per-node count of receives in progress: a rank with one is never a
	// suspect. Per-job barriers leave it nil; their runners receive
	// through the frame router, not on their own.
	receiving []atomic.Int32

	// pending ORs the flags of the generation currently filling; decision is
	// the result of the last completed generation. A late waiter of
	// generation g always reads decision before any node can complete
	// generation g+1 (completing it requires all n nodes to re-enter, which
	// includes the late waiter).
	pending  bool
	decision bool
}

func newReusableBarrier(n int) *reusableBarrier {
	b := &reusableBarrier{n: n, alive: make([]bool, n), arrived: make([]bool, n)}
	for i := range b.alive {
		b.alive[i] = true
	}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// waitVote blocks until all live parties arrive, then returns the OR of
// every party's flag. A broken barrier returns (true, nil, ErrBarrierBroken)
// immediately: an aborting cluster must look like a unanimous abort vote to
// anyone still voting, and like a failure to anyone synchronizing. acked is the caller's acknowledged membership
// epoch; if it lags the barrier's — or lags it by the time the wait ends —
// the call fails with ErrMembershipChanged. A second arrival by a rank
// already counted in the filling generation fails with ErrDuplicateVote. With
// a positive timeout, a waiter that sees no completion for that long wakes;
// the lowest-ranked arrived live member returns the non-arrived live members
// as suspects with ErrRecvStall (the caller deposes them, which resets the
// generation before it re-enters), everyone else re-arms and keeps waiting.
// A member live in a counted receive is not a suspect: a survivor still
// waiting for a hung peer's batch is not the culprit, and its own stall
// timer accuses the peer that owes it.
func (b *reusableBarrier) waitVote(id int, flag bool, acked uint64, timeout time.Duration) (decision bool, suspects []int, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.broken {
		return true, nil, ErrBarrierBroken
	}
	if acked != b.epoch || !b.alive[id] {
		return false, nil, ErrMembershipChanged
	}
	if b.arrived[id] {
		return false, nil, fmt.Errorf("%w: rank %d, epoch %d", ErrDuplicateVote, id, b.epoch)
	}
	gen := b.gen
	epoch := b.epoch
	b.pending = b.pending || flag
	b.count++
	b.arrived[id] = true
	if b.count == b.n {
		b.count = 0
		for i := range b.arrived {
			b.arrived[i] = false
		}
		b.decision = b.pending
		b.pending = false
		b.gen++
		b.cond.Broadcast()
		return b.decision, nil, nil
	}
	fired := false
	var timer *time.Timer
	if timeout > 0 {
		timer = time.AfterFunc(timeout, func() {
			b.mu.Lock()
			if b.gen == gen && b.epoch == epoch && !b.broken {
				fired = true
				b.cond.Broadcast()
			}
			b.mu.Unlock()
		})
		defer timer.Stop()
	}
	for {
		for gen == b.gen && epoch == b.epoch && !b.broken && !fired {
			b.cond.Wait()
		}
		if b.broken {
			return true, nil, ErrBarrierBroken
		}
		if gen != b.gen {
			return b.decision, nil, nil
		}
		if epoch != b.epoch {
			return false, nil, ErrMembershipChanged
		}
		// Timeout with the generation still filling. Exactly one waiter —
		// the lowest-ranked arrived live member — becomes the accuser; the
		// rest re-arm and wait for the deposal to unwind them.
		fired = false
		accuser := -1
		for r, ok := range b.arrived {
			if ok && b.alive[r] {
				accuser = r
				break
			}
		}
		if accuser == id {
			for r, live := range b.alive {
				if live && !b.arrived[r] && (b.receiving == nil || b.receiving[r].Load() == 0) {
					suspects = append(suspects, r)
				}
			}
			if len(suspects) > 0 {
				return false, suspects, ErrRecvStall
			}
		}
		timer.Reset(timeout)
	}
}

// depose removes rank from the barrier's membership at the given epoch and
// resets the filling generation: counts and votes are discarded (the
// survivors will re-synchronize after recovery) and every waiter wakes to
// find the epoch changed. The generation counter is NOT advanced — no
// generation completed, and waiters distinguish deposal from completion by
// the epoch.
func (b *reusableBarrier) depose(rank int, epoch uint64) {
	b.mu.Lock()
	if b.alive[rank] {
		b.alive[rank] = false
		b.n--
	}
	b.epoch = epoch
	b.count = 0
	for i := range b.arrived {
		b.arrived[i] = false
	}
	b.pending = false
	b.cond.Broadcast()
	b.mu.Unlock()
}

// reinstate is depose's inverse: it re-admits rank to the barrier's
// membership at the given (grown) epoch and resets the filling generation
// exactly as depose does — counts and votes are discarded, every waiter
// wakes to find the epoch changed, and the generation counter stays put.
func (b *reusableBarrier) reinstate(rank int, epoch uint64) {
	b.mu.Lock()
	if !b.alive[rank] {
		b.alive[rank] = true
		b.n++
	}
	b.epoch = epoch
	b.count = 0
	for i := range b.arrived {
		b.arrived[i] = false
	}
	b.pending = false
	b.cond.Broadcast()
	b.mu.Unlock()
}

// breakBarrier permanently releases all current and future waiters.
func (b *reusableBarrier) breakBarrier() {
	b.mu.Lock()
	b.broken = true
	b.cond.Broadcast()
	b.mu.Unlock()
}
