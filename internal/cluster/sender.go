package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Buf is a pooled wire buffer owned by a Sender. Callers Acquire one, append
// their encoded message into Data[:0], and hand it back through Send or
// Broadcast — at which point ownership transfers to the Sender, which
// returns the buffer to its pool once the last destination's write has
// finished. A buffer handed to the Sender must not be touched again.
type Buf struct {
	Data []byte
	refs atomic.Int32
}

// Sender is a node's asynchronous broadcast pipeline: one goroutine and one
// bounded queue per destination, so enqueueing a message costs a channel
// send and the wire time (serialization onto the socket, NIC-model sleeps,
// inbox handoff) overlaps with whatever the caller does next. Enqueues
// apply backpressure when a destination queue is full. Flush drains every
// queue — the barrier edge of a BSP superstep — and reports the first
// asynchronous send error; a send error also aborts the cluster so peers
// blocked in a receive or Barrier unwind instead of hanging.
//
// A Sender is safe for concurrent use by many goroutines (the engine's
// compute workers all enqueue through one Sender).
type Sender struct {
	node   *Node
	npeers int
	queues []chan *Buf // indexed by destination; nil for self
	free   chan *Buf
	wg     sync.WaitGroup

	mu      sync.Mutex
	cond    *sync.Cond
	pending int   // enqueued messages not yet written
	err     error // first asynchronous send error
	closed  bool
}

// NewSender builds the node's pipelined sender with the given
// per-destination queue capacity (0 means 32).
func (n *Node) NewSender(queueCap int) *Sender {
	if queueCap <= 0 {
		queueCap = 32
	}
	peers := n.c.cfg.NumNodes - 1
	s := &Sender{
		node:   n,
		npeers: peers,
		queues: make([]chan *Buf, n.c.cfg.NumNodes),
		// The pool holds every buffer that can be in flight at once —
		// queued plus being-written plus a margin for callers mid-encode —
		// so steady-state supersteps cycle buffers instead of allocating.
		free: make(chan *Buf, (queueCap+2)*peers+16),
	}
	s.cond = sync.NewCond(&s.mu)
	for d := range s.queues {
		if d == n.id {
			continue
		}
		q := make(chan *Buf, queueCap)
		s.queues[d] = q
		s.wg.Add(1)
		go s.drain(d, q)
	}
	return s
}

// Acquire returns a wire buffer from the pool (or a fresh one when the pool
// is empty). The caller owns it until it is passed to Send, Broadcast or
// Release.
func (s *Sender) Acquire() *Buf {
	select {
	case b := <-s.free:
		return b
	default:
		return new(Buf)
	}
}

// Release returns an acquired buffer that was never enqueued.
func (s *Sender) Release(b *Buf) {
	b.refs.Store(1)
	s.release(b)
}

func (s *Sender) release(b *Buf) {
	if b.refs.Add(-1) > 0 {
		return
	}
	select {
	case s.free <- b:
	default: // pool full; let the GC take it
	}
}

// Send enqueues the buffer for one destination, transferring ownership.
// It blocks only when that destination's queue is full (backpressure) and
// returns immediately once queued; the write happens asynchronously. A
// previously recorded asynchronous error is returned without enqueueing.
// Self-sends are an error: loopback delivery stays on the blocking
// Node.Send path.
func (s *Sender) Send(to int, b *Buf) error {
	return s.enqueue(b, to, false)
}

// Broadcast enqueues the buffer for every peer, transferring ownership —
// the pipelined counterpart of Node.Broadcast. The bytes are shared, not
// copied: the buffer returns to the pool after the last peer's write.
func (s *Sender) Broadcast(b *Buf) error {
	return s.enqueue(b, -1, true)
}

func (s *Sender) enqueue(b *Buf, to int, broadcast bool) error {
	if !broadcast && to == s.node.id {
		s.Release(b)
		return fmt.Errorf("cluster: node %d async self-send (use Node.Send)", s.node.id)
	}
	count := 1
	if broadcast {
		count = s.npeers
	}
	if count == 0 {
		// Single-node broadcast: no peers, nothing to put on the wire.
		s.Release(b)
		return nil
	}
	s.mu.Lock()
	if err := s.err; err != nil {
		s.mu.Unlock()
		s.Release(b)
		return err
	}
	s.pending += count
	s.mu.Unlock()

	// The refcount must cover every destination before the first enqueue:
	// a drain goroutine may write and release the buffer while later
	// destinations are still being queued.
	b.refs.Store(int32(count))
	c := s.node.c
	id := s.node.id
	for d, q := range s.queues {
		if q == nil || (!broadcast && d != to) {
			continue
		}
		select {
		case q <- b:
		default:
			c.stalls[id].Add(1)
			q <- b
		}
		atomicMaxInt64(&c.queueHi[id], int64(len(q)))
		c.enqueued[id].Add(1)
	}
	return nil
}

// drain is the per-destination goroutine: it writes queued buffers through
// the blocking transport path and recycles them. After the first error it
// keeps draining (discarding) so Flush never hangs, and aborts the cluster
// so the failure propagates to peers through the existing abort path.
func (s *Sender) drain(to int, q chan *Buf) {
	defer s.wg.Done()
	for b := range q {
		s.mu.Lock()
		failed := s.err != nil
		s.mu.Unlock()
		var err error
		if !failed {
			err = s.node.Send(to, b.Data)
		}
		s.release(b)
		s.mu.Lock()
		first := err != nil && s.err == nil
		if first {
			s.err = err
		}
		s.pending--
		if s.pending == 0 {
			s.cond.Broadcast()
		}
		s.mu.Unlock()
		if first {
			s.node.c.abort()
		}
	}
}

// Flush blocks until every enqueued message has been handed to the
// transport — written to the peer's socket or delivered to its inbox — and
// returns the first asynchronous send error, if any. This is the
// flush-at-barrier edge of the pipelined superstep: after Flush, entering
// the BSP barrier cannot strand messages behind it.
func (s *Sender) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.pending > 0 {
		s.cond.Wait()
	}
	return s.err
}

// Abort tears the Sender down on the crash path: already-enqueued buffers
// are drained and discarded by the destination goroutines (a crashed node's
// sends are dropped at the transport anyway), nothing is flushed, and Abort
// does not wait for the drains to finish. Unlike Close it never blocks on a
// peer, so a dying node can always get through it. Safe to call after
// Close; Close after Abort is a no-op.
func (s *Sender) Abort() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.err == nil {
		s.err = errSenderAborted
	}
	s.mu.Unlock()
	for _, q := range s.queues {
		if q != nil {
			close(q)
		}
	}
}

// errSenderAborted marks a Sender torn down by Abort; recorded as the
// asynchronous error so drains discard instead of writing.
var errSenderAborted = errors.New("cluster: sender aborted")

// Join waits for the destination goroutines to exit. It must only be
// called after Abort or Close has closed the queues. Recovery uses
// Abort+Join to guarantee that every frame of an interrupted superstep is
// on the wire (or discarded) before the first recovery marker is sent, so
// per-pair FIFO ordering lets receivers drain all stale step traffic.
func (s *Sender) Join() { s.wg.Wait() }

// Close flushes, stops the destination goroutines, waits for them, and
// returns Flush's error. The Sender must not be used afterwards.
func (s *Sender) Close() error {
	err := s.Flush()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return err
	}
	s.closed = true
	s.mu.Unlock()
	for _, q := range s.queues {
		if q != nil {
			close(q)
		}
	}
	s.wg.Wait()
	return err
}

// atomicMaxInt64 lock-freely raises a to v if v is larger.
func atomicMaxInt64(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
