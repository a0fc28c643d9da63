package cluster

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func transports() []TransportKind { return []TransportKind{Inproc, TCP} }

// recvOne receives one message through the counted receive and returns its
// sender and a copy of its payload (the receive buffer is recycled).
func recvOne(n *Node) (from int, payload []byte, err error) {
	err = n.RecvStream(1, func(f int, p []byte) error {
		from, payload = f, append([]byte(nil), p...)
		return nil
	})
	return from, payload, err
}

// recvN receives count messages, returning copies of the payloads and their
// senders in arrival order.
func recvN(n *Node, count int) (payloads [][]byte, froms []int, err error) {
	err = n.RecvStream(count, func(f int, p []byte) error {
		payloads = append(payloads, append([]byte(nil), p...))
		froms = append(froms, f)
		return nil
	})
	return payloads, froms, err
}

func TestSendRecv(t *testing.T) {
	for _, tr := range transports() {
		t.Run(tr.String(), func(t *testing.T) {
			c, err := New(Config{NumNodes: 2, Transport: tr})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			err = c.Run(func(n *Node) error {
				if n.ID() == 0 {
					return n.Send(1, []byte("hello from 0"))
				}
				from, payload, err := recvOne(n)
				if err != nil {
					return err
				}
				if from != 0 || string(payload) != "hello from 0" {
					return fmt.Errorf("got %q from %d", payload, from)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBroadcast(t *testing.T) {
	for _, tr := range transports() {
		t.Run(tr.String(), func(t *testing.T) {
			const n = 4
			c, err := New(Config{NumNodes: n, Transport: tr})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			err = c.Run(func(node *Node) error {
				msg := []byte(fmt.Sprintf("update from %d", node.ID()))
				if err := node.Broadcast(msg); err != nil {
					return err
				}
				payloads, froms, err := recvN(node, n-1)
				if err != nil {
					return err
				}
				seen := map[int]bool{}
				for i := range payloads {
					want := fmt.Sprintf("update from %d", froms[i])
					if string(payloads[i]) != want {
						return fmt.Errorf("node %d: got %q from %d", node.ID(), payloads[i], froms[i])
					}
					seen[froms[i]] = true
				}
				if len(seen) != n-1 || seen[node.ID()] {
					return fmt.Errorf("node %d: senders %v", node.ID(), seen)
				}
				node.Barrier()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBSPSupersteps(t *testing.T) {
	// Three supersteps of broadcast+barrier must not mix messages across
	// steps when each node consumes exactly N-1 messages per step.
	for _, tr := range transports() {
		t.Run(tr.String(), func(t *testing.T) {
			const n = 3
			const steps = 3
			c, err := New(Config{NumNodes: n, Transport: tr})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			err = c.Run(func(node *Node) error {
				for s := 0; s < steps; s++ {
					msg := []byte{byte(s), byte(node.ID())}
					if err := node.Broadcast(msg); err != nil {
						return err
					}
					payloads, _, err := recvN(node, n-1)
					if err != nil {
						return err
					}
					for _, p := range payloads {
						if int(p[0]) != s {
							return fmt.Errorf("node %d step %d: got message from step %d", node.ID(), s, p[0])
						}
					}
					node.Barrier()
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBarrierOrdering(t *testing.T) {
	const n = 4
	c, err := New(Config{NumNodes: n})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var phase atomic.Int64
	err = c.Run(func(node *Node) error {
		if node.ID() == 0 {
			time.Sleep(20 * time.Millisecond) // straggler
			phase.Store(1)
		}
		node.Barrier()
		// After the barrier, every node must observe the straggler's write.
		if phase.Load() != 1 {
			return fmt.Errorf("node %d passed barrier before straggler", node.ID())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelfSend(t *testing.T) {
	for _, tr := range transports() {
		t.Run(tr.String(), func(t *testing.T) {
			c, err := New(Config{NumNodes: 2, Transport: tr})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			n := c.Node(0)
			if err := n.Send(0, []byte("self")); err != nil {
				t.Fatal(err)
			}
			from, p, err := recvOne(n)
			if err != nil || from != 0 || string(p) != "self" {
				t.Fatalf("self send: %q from %d, %v", p, from, err)
			}
			// Self-sends do not count as network traffic.
			if m := c.NodeMetrics(0); m.BytesSent != 0 {
				t.Fatalf("self-send counted as network traffic: %+v", m)
			}
		})
	}
}

func TestPayloadCopiedOnSend(t *testing.T) {
	for _, tr := range transports() {
		t.Run(tr.String(), func(t *testing.T) {
			c, err := New(Config{NumNodes: 2, Transport: tr})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			buf := []byte("original")
			if err := c.Node(0).Send(1, buf); err != nil {
				t.Fatal(err)
			}
			copy(buf, "MUTATED!")
			_, p, err := recvOne(c.Node(1))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(p, []byte("original")) {
				t.Fatalf("receiver saw mutated payload %q", p)
			}
		})
	}
}

func TestMetrics(t *testing.T) {
	for _, tr := range transports() {
		t.Run(tr.String(), func(t *testing.T) {
			c, err := New(Config{NumNodes: 3, Transport: tr})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			payload := make([]byte, 1000)
			err = c.Run(func(n *Node) error {
				if n.ID() == 0 {
					return n.Broadcast(payload)
				}
				_, _, err := recvOne(n)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			m0 := c.NodeMetrics(0)
			if m0.BytesSent != 2000 || m0.MsgsSent != 2 {
				t.Fatalf("node 0 metrics: %+v", m0)
			}
			total := c.TotalMetrics()
			if total.BytesRecv != 2000 || total.MsgsRecv != 2 {
				t.Fatalf("total metrics: %+v", total)
			}
			c.ResetMetrics()
			if m := c.TotalMetrics(); m.BytesSent != 0 || m.BytesRecv != 0 {
				t.Fatalf("metrics not reset: %+v", m)
			}
		})
	}
}

func TestNetBandwidthThrottle(t *testing.T) {
	// 1 MB at 10 MB/s must take ≥ ~100ms.
	c, err := New(Config{NumNodes: 2, NetBandwidth: 10 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := make([]byte, 1<<20)
	start := time.Now()
	err = c.Run(func(n *Node) error {
		if n.ID() == 0 {
			return n.Send(1, payload)
		}
		_, _, err := recvOne(n)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("1MB @ 10MB/s took %v, want ≥ ~100ms", elapsed)
	}
}

func TestSingleNodeCluster(t *testing.T) {
	for _, tr := range transports() {
		t.Run(tr.String(), func(t *testing.T) {
			c, err := New(Config{NumNodes: 1, Transport: tr})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			err = c.Run(func(n *Node) error {
				if err := n.Broadcast([]byte("nobody listens")); err != nil {
					return err
				}
				n.Barrier()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestInvalidConfigs(t *testing.T) {
	if _, err := New(Config{NumNodes: 0}); err == nil {
		t.Fatal("0-node cluster accepted")
	}
	if _, err := New(Config{NumNodes: 1, Transport: TransportKind(9)}); err == nil {
		t.Fatal("unknown transport accepted")
	}
	c, err := New(Config{NumNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Node(0).Send(7, nil); err == nil {
		t.Fatal("send to invalid node accepted")
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	for _, tr := range transports() {
		t.Run(tr.String(), func(t *testing.T) {
			c, err := New(Config{NumNodes: 2, Transport: tr})
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, _, err := recvOne(c.Node(1))
				done <- err
			}()
			time.Sleep(10 * time.Millisecond)
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("receive returned nil after close")
				}
			case <-time.After(2 * time.Second):
				t.Fatal("receive still blocked after close")
			}
		})
	}
}

func TestLargePayloadTCP(t *testing.T) {
	c, err := New(Config{NumNodes: 2, Transport: TCP})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := make([]byte, 8<<20)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	err = c.Run(func(n *Node) error {
		if n.ID() == 0 {
			return n.Send(1, payload)
		}
		_, p, err := recvOne(n)
		if err != nil {
			return err
		}
		if !bytes.Equal(p, payload) {
			return fmt.Errorf("8MB payload corrupted in transit")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestManyNodesStress(t *testing.T) {
	for _, tr := range transports() {
		t.Run(tr.String(), func(t *testing.T) {
			const n = 8
			c, err := New(Config{NumNodes: n, Transport: tr})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			err = c.Run(func(node *Node) error {
				for s := 0; s < 5; s++ {
					if err := node.Broadcast([]byte{byte(node.ID()), byte(s)}); err != nil {
						return err
					}
					if _, _, err := recvN(node, n-1); err != nil {
						return err
					}
					node.Barrier()
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
