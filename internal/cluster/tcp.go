package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// tcpTransport connects every node pair with a loopback TCP connection and
// moves length-prefixed frames: [4-byte big-endian length][4-byte sender
// rank][payload]. A reader goroutine per connection demultiplexes frames into the
// destination node's inbox.
type tcpTransport struct {
	n         int
	inboxes   []chan message
	done      chan struct{}
	closeOnce sync.Once

	mu      sync.Mutex
	conns   [][]net.Conn // conns[i][j]: node i's connection to node j (j > i uses dialer side)
	writeMu [][]*sync.Mutex
	lns     []net.Listener
	closed  bool
	wg      sync.WaitGroup
}

// newTCPTransport builds the full mesh. Node i listens on an ephemeral
// loopback port; node j > i dials node i, then sends its rank so the
// acceptor can place the connection.
func newTCPTransport(n, capacity int) (*tcpTransport, error) {
	t := &tcpTransport{n: n, inboxes: make([]chan message, n), done: make(chan struct{})}
	for i := range t.inboxes {
		t.inboxes[i] = make(chan message, capacity)
	}
	t.conns = make([][]net.Conn, n)
	t.writeMu = make([][]*sync.Mutex, n)
	for i := range t.conns {
		t.conns[i] = make([]net.Conn, n)
		t.writeMu[i] = make([]*sync.Mutex, n)
		for j := range t.writeMu[i] {
			t.writeMu[i][j] = &sync.Mutex{}
		}
	}
	if n == 1 {
		return t, nil
	}

	// Start listeners.
	t.lns = make([]net.Listener, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.close()
			return nil, fmt.Errorf("cluster: tcp listen for node %d: %w", i, err)
		}
		t.lns[i] = ln
		addrs[i] = ln.Addr().String()
	}

	// Accept in the background: node i accepts connections from all j > i.
	var acceptWG sync.WaitGroup
	acceptErr := make([]error, n)
	for i := 0; i < n; i++ {
		expect := n - 1 - i
		if expect == 0 {
			continue
		}
		acceptWG.Add(1)
		go func(i, expect int) {
			defer acceptWG.Done()
			for k := 0; k < expect; k++ {
				conn, err := t.lns[i].Accept()
				if err != nil {
					acceptErr[i] = err
					return
				}
				var hdr [4]byte
				if _, err := io.ReadFull(conn, hdr[:]); err != nil {
					acceptErr[i] = err
					conn.Close()
					return
				}
				j := int(binary.BigEndian.Uint32(hdr[:]))
				if j <= i || j >= n {
					acceptErr[i] = fmt.Errorf("bad peer rank %d", j)
					conn.Close()
					return
				}
				t.mu.Lock()
				t.conns[i][j] = conn
				t.mu.Unlock()
			}
		}(i, expect)
	}

	// Dial: node j dials every i < j.
	var dialErr error
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			conn, err := net.Dial("tcp", addrs[i])
			if err != nil {
				dialErr = err
				break
			}
			var hdr [4]byte
			binary.BigEndian.PutUint32(hdr[:], uint32(j))
			if _, err := conn.Write(hdr[:]); err != nil {
				dialErr = err
				conn.Close()
				break
			}
			t.mu.Lock()
			t.conns[j][i] = conn
			t.mu.Unlock()
		}
		if dialErr != nil {
			break
		}
	}
	acceptWG.Wait()
	if dialErr != nil {
		t.close()
		return nil, fmt.Errorf("cluster: tcp dial: %w", dialErr)
	}
	for i, err := range acceptErr {
		if err != nil {
			t.close()
			return nil, fmt.Errorf("cluster: tcp accept on node %d: %w", i, err)
		}
	}

	// One reader goroutine per (owner, peer) connection, delivering into
	// the owner's inbox.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || t.conns[i][j] == nil {
				continue
			}
			t.wg.Add(1)
			go t.readLoop(i, t.conns[i][j])
		}
	}
	return t, nil
}

func (t *tcpTransport) readLoop(owner int, conn net.Conn) {
	defer t.wg.Done()
	// One header buffer per connection, hoisted out of the loop: passed
	// through the io.Reader interface it escapes, and a per-frame array
	// would cost an allocation per received message.
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return // connection closed
		}
		length := binary.BigEndian.Uint32(hdr[0:])
		from := int(binary.BigEndian.Uint32(hdr[4:]))
		payload, h := getWireBuf(int(length))
		if _, err := io.ReadFull(conn, payload); err != nil {
			putWireBuf(h)
			return
		}
		select {
		case t.inboxes[owner] <- message{from: from, payload: payload, pool: h}:
		case <-t.done:
			putWireBuf(h)
			return
		}
	}
}

func (t *tcpTransport) send(from, to int, payload []byte) error {
	if from == to {
		// Loopback without a socket, mirroring MPI self-sends.
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
	t.mu.Lock()
	conn := t.conns[from][to]
	closed := t.closed
	t.mu.Unlock()
	if closed || conn == nil {
		return fmt.Errorf("cluster: no tcp connection %d->%d", from, to)
	}
	// The frame header goes through the net.Conn interface, so a stack
	// array would escape and cost an allocation per sent message; draw it
	// from a pool instead.
	hp := hdrPool.Get().(*[8]byte)
	hdr := hp[:]
	binary.BigEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], uint32(from))
	mu := t.writeMu[from][to]
	mu.Lock()
	defer mu.Unlock()
	if _, err := conn.Write(hdr); err != nil {
		hdrPool.Put(hp)
		return fmt.Errorf("cluster: tcp send header %d->%d: %w", from, to, err)
	}
	hdrPool.Put(hp)
	if _, err := conn.Write(payload); err != nil {
		return fmt.Errorf("cluster: tcp send payload %d->%d: %w", from, to, err)
	}
	return nil
}

// hdrPool recycles TCP frame headers (see send).
var hdrPool = sync.Pool{New: func() any { return new([8]byte) }}

func (t *tcpTransport) recv(node int, cancel, memb <-chan struct{}, stall <-chan time.Time) (message, error) {
	return recvFromInbox(t.inboxes[node], cancel, memb, stall, t.done)
}

func (t *tcpTransport) close() error {
	t.closeOnce.Do(func() { close(t.done) })
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	for _, ln := range t.lns {
		if ln != nil {
			ln.Close()
		}
	}
	for i := range t.conns {
		for j := range t.conns[i] {
			if t.conns[i][j] != nil {
				t.conns[i][j].Close()
			}
		}
	}
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}
