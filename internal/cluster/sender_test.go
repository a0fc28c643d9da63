package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestSenderConcurrentEnqueue hammers one destination from many goroutines
// — the engine's compute workers all enqueue through one Sender — and
// checks every message arrives intact on both transports.
func TestSenderConcurrentEnqueue(t *testing.T) {
	for _, tr := range transports() {
		t.Run(tr.String(), func(t *testing.T) {
			const goroutines, perG = 8, 50
			c, err := New(Config{NumNodes: 2, Transport: tr})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			err = c.Run(func(n *Node) error {
				if n.ID() == 0 {
					s := n.NewSender(4)
					defer s.Close()
					var wg sync.WaitGroup
					for g := 0; g < goroutines; g++ {
						wg.Add(1)
						go func(g int) {
							defer wg.Done()
							for m := 0; m < perG; m++ {
								b := s.Acquire()
								b.Data = binary.LittleEndian.AppendUint64(b.Data[:0], uint64(g*perG+m))
								if err := s.Send(1, b); err != nil {
									t.Error(err)
									return
								}
							}
						}(g)
					}
					wg.Wait()
					return s.Flush()
				}
				seen := make(map[uint64]bool)
				err := n.RecvStream(goroutines*perG, func(from int, p []byte) error {
					if from != 0 || len(p) != 8 {
						return fmt.Errorf("unexpected message from %d: %v", from, p)
					}
					v := binary.LittleEndian.Uint64(p)
					if seen[v] {
						return fmt.Errorf("duplicate message %d", v)
					}
					seen[v] = true
					return nil
				})
				if err != nil {
					return err
				}
				if len(seen) != goroutines*perG {
					return fmt.Errorf("received %d distinct messages, want %d", len(seen), goroutines*perG)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSenderBroadcastSupersteps runs a BSP-shaped loop — broadcast K
// batches, stream-receive peers' batches, flush, barrier — and checks no
// step's messages bleed into the next on either transport.
func TestSenderBroadcastSupersteps(t *testing.T) {
	for _, tr := range transports() {
		t.Run(tr.String(), func(t *testing.T) {
			const nodes, steps, batches = 4, 3, 5
			c, err := New(Config{NumNodes: nodes, Transport: tr})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			err = c.Run(func(n *Node) error {
				s := n.NewSender(2)
				defer s.Close()
				for step := 0; step < steps; step++ {
					for k := 0; k < batches; k++ {
						b := s.Acquire()
						b.Data = append(b.Data[:0], byte(step), byte(n.ID()), byte(k))
						if err := s.Broadcast(b); err != nil {
							return err
						}
					}
					got := 0
					err := n.RecvStream((nodes-1)*batches, func(from int, p []byte) error {
						if int(p[0]) != step {
							return fmt.Errorf("node %d step %d: message from step %d", n.ID(), step, p[0])
						}
						if int(p[1]) != from {
							return fmt.Errorf("payload sender %d, transport says %d", p[1], from)
						}
						got++
						return nil
					})
					if err != nil {
						return err
					}
					if got != (nodes-1)*batches {
						return fmt.Errorf("step %d: received %d", step, got)
					}
					if err := s.Flush(); err != nil {
						return err
					}
					n.Barrier()
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSenderFlushDelivers pins the flush-at-barrier contract: once Flush
// returns, every enqueued message has been handed to the transport, so a
// receiver that starts afterwards still gets them all.
func TestSenderFlushDelivers(t *testing.T) {
	for _, tr := range transports() {
		t.Run(tr.String(), func(t *testing.T) {
			const count = 20
			c, err := New(Config{NumNodes: 2, Transport: tr})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			s := c.Node(0).NewSender(4)
			for m := 0; m < count; m++ {
				b := s.Acquire()
				b.Data = append(b.Data[:0], byte(m))
				if err := s.Send(1, b); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			if _, _, err := recvN(c.Node(1), count); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSenderBufferRecycled checks ownership transfer: after Flush the
// broadcast buffer is back in the pool, so the next Acquire reuses it
// instead of allocating.
func TestSenderBufferRecycled(t *testing.T) {
	c, err := New(Config{NumNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.Node(0).NewSender(2)
	defer s.Close()
	b1 := s.Acquire()
	b1.Data = append(b1.Data[:0], 1, 2, 3)
	if err := s.Broadcast(b1); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if b2 := s.Acquire(); b2 != b1 {
		t.Fatal("flushed buffer was not returned to the pool")
	}
	if _, _, err := recvOne(c.Node(1)); err != nil {
		t.Fatal(err)
	}
}

// TestSenderAbortWhileQueued fills a tiny send queue toward a peer that
// never receives (inbox capacity 1, inproc), then aborts the cluster:
// blocked enqueues must unwind, Flush must report the failure instead of
// hanging, and the error must wrap ErrClosed.
func TestSenderAbortWhileQueued(t *testing.T) {
	c, err := New(Config{NumNodes: 2, InboxCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := c.Node(0).NewSender(1)
	enqDone := make(chan struct{})
	go func() {
		defer close(enqDone)
		for m := 0; m < 50; m++ {
			b := s.Acquire()
			b.Data = append(b.Data[:0], byte(m))
			if err := s.Send(1, b); err != nil {
				return // error propagation after abort is the expected exit
			}
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the queue and inbox fill
	c.Close()
	select {
	case <-enqDone:
	case <-time.After(2 * time.Second):
		t.Fatal("enqueue goroutine still blocked after abort")
	}
	flushed := make(chan error, 1)
	go func() { flushed <- s.Flush() }()
	select {
	case err := <-flushed:
		if err != nil && !errors.Is(err, ErrClosed) {
			t.Fatalf("flush error %v does not wrap ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Flush hung after abort with queued messages")
	}
	s.Close()
}

// TestSenderTCPWriteErrorPropagates slows the NIC model so writes are in
// flight when the transport closes mid-run; the asynchronous write error
// must surface from Flush rather than vanish.
func TestSenderTCPWriteErrorPropagates(t *testing.T) {
	c, err := New(Config{NumNodes: 2, Transport: TCP, NetBandwidth: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s := c.Node(0).NewSender(2)
	payload := make([]byte, 1<<20) // 250ms each at 4 MB/s
	for m := 0; m < 4; m++ {
		b := s.Acquire()
		b.Data = append(b.Data[:0], payload...)
		if err := s.Send(1, b); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	c.Close()
	flushed := make(chan error, 1)
	go func() { flushed <- s.Flush() }()
	select {
	case err := <-flushed:
		if err == nil {
			t.Fatal("Flush reported success though the transport closed mid-write")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Flush hung after transport close")
	}
	s.Close()
}

// TestSenderQueueMetrics checks the queue-depth instrumentation: a slow
// receiver with a capacity-1 queue must record stalls and a nonzero high
// water mark, and the enqueue counter must see every message.
func TestSenderQueueMetrics(t *testing.T) {
	c, err := New(Config{NumNodes: 2, InboxCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const count = 30
	err = c.Run(func(n *Node) error {
		if n.ID() == 0 {
			s := n.NewSender(1)
			defer s.Close()
			for m := 0; m < count; m++ {
				b := s.Acquire()
				b.Data = append(b.Data[:0], byte(m))
				if err := s.Send(1, b); err != nil {
					return err
				}
			}
			return s.Flush()
		}
		for m := 0; m < count; m++ {
			time.Sleep(time.Millisecond)
			if _, _, err := recvOne(n); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m := c.NodeMetrics(0)
	if m.Enqueued != count {
		t.Fatalf("Enqueued = %d, want %d", m.Enqueued, count)
	}
	if m.SendStalls == 0 {
		t.Fatal("slow receiver with capacity-1 queue recorded no stalls")
	}
	if m.QueueHighWater == 0 {
		t.Fatal("queue high water never recorded")
	}
	if m.MsgsSent != count {
		t.Fatalf("MsgsSent = %d, want %d (async sends must hit the same counters)", m.MsgsSent, count)
	}
}

// TestRecvStreamCallbackError checks a callback error stops the stream and
// surfaces unchanged.
func TestRecvStreamCallbackError(t *testing.T) {
	c, err := New(Config{NumNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want := errors.New("boom")
	if err := c.Node(0).Send(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	err = c.Node(1).RecvStream(1, func(int, []byte) error { return want })
	if !errors.Is(err, want) {
		t.Fatalf("RecvStream returned %v, want %v", err, want)
	}
}
