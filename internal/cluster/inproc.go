package cluster

import (
	"fmt"
	"sync"
	"time"
)

// inprocTransport moves messages over per-node buffered channels. Payloads
// are copied on send so that senders may reuse their buffers, matching the
// semantics of the TCP transport; the copies come from the shared receive
// pool and are recycled by RecvStream, so the steady-state receive path
// allocates nothing. Shutdown is signalled through a done channel rather
// than by closing the inboxes, so concurrent senders never race a channel
// close.
type inprocTransport struct {
	inboxes   []chan message
	done      chan struct{}
	closeOnce sync.Once
}

func newInprocTransport(n, capacity int) *inprocTransport {
	t := &inprocTransport{
		inboxes: make([]chan message, n),
		done:    make(chan struct{}),
	}
	for i := range t.inboxes {
		t.inboxes[i] = make(chan message, capacity)
	}
	return t
}

func (t *inprocTransport) send(from, to int, payload []byte) error {
	select {
	case <-t.done:
		return fmt.Errorf("cluster: send: %w", ErrClosed)
	default:
	}
	cp, h := getWireBuf(len(payload))
	copy(cp, payload)
	select {
	case t.inboxes[to] <- message{from: from, payload: cp, pool: h}:
		return nil
	case <-t.done:
		putWireBuf(h)
		return fmt.Errorf("cluster: send: %w", ErrClosed)
	}
}

func (t *inprocTransport) recv(node int, cancel, memb <-chan struct{}, stall <-chan time.Time) (message, error) {
	return recvFromInbox(t.inboxes[node], cancel, memb, stall, t.done)
}

func (t *inprocTransport) close() error {
	t.closeOnce.Do(func() { close(t.done) })
	return nil
}
