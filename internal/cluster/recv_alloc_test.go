package cluster

// Regression guard for the pooled receive path: once the wire pool is
// warm, a send/receive round trip through RecvStream must not allocate on
// either transport — the inproc copy and the TCP frame read both draw from
// the pool, and RecvStream recycles the buffer after the callback.

import (
	"testing"

	"repro/internal/racedetect"
)

func TestRecvSteadyStateAllocs(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	for _, tr := range transports() {
		t.Run(tr.String(), func(t *testing.T) {
			c, err := New(Config{NumNodes: 2, Transport: tr})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			n0, n1 := c.Node(0), c.Node(1)
			payload := make([]byte, 512)
			for i := range payload {
				payload[i] = byte(i)
			}
			var received int
			sink := func(from int, p []byte) error {
				received += len(p)
				return nil
			}
			roundTrip := func() {
				if err := n0.Send(1, payload); err != nil {
					t.Fatal(err)
				}
				if err := n1.RecvStream(1, sink); err != nil {
					t.Fatal(err)
				}
			}
			// Warm the pool (and, on TCP, the reader goroutine's buffers).
			for i := 0; i < 32; i++ {
				roundTrip()
			}
			if allocs := testing.AllocsPerRun(100, roundTrip); allocs > 0 {
				t.Errorf("steady-state receive allocates %.1f per message, want 0", allocs)
			}
			if received == 0 {
				t.Fatal("callback never ran")
			}
		})
	}
}
