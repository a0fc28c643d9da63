package core

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// TestStepCrewSettleJoinsAbandonedReceive pins stepCrew's pending/settle
// invariant. A runStep that returns with its receive still running (a tile
// or flush error, a mid-step kill) leaves pending set; settle must then
// block until that receive finishes, so recovery can rewrite the state the
// receive writes, and the next step must read its own result, never the
// abandoned one's. Run under -race: the staging writes below race unless
// settle orders them.
func TestStepCrewSettleJoinsAbandonedReceive(t *testing.T) {
	c := &stepCrew{
		s:       &server{multi: true}, // no quiesce gate to hold
		recvReq: make(chan int),
		recvRes: make(chan error, 1),
	}
	defer close(c.recvReq)
	var staged []int // stands in for the staging buffers a receive fills
	release := make(chan struct{})
	recv := func(_ context.Context, step int) error {
		if step == 1 {
			<-release // the abandoned receive: ends once membership changes
		}
		staged = append(staged, step)
		return fmt.Errorf("step %d", step)
	}
	go c.receiver(context.Background(), recv)

	// Step 1 requests its receive, then returns without reading the result.
	c.recvReq <- 1
	c.pending = true

	settled := make(chan struct{})
	go func() {
		c.settle()
		close(settled)
	}()
	select {
	case <-settled:
		t.Fatal("settle returned before the abandoned receive finished")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-settled:
	case <-time.After(5 * time.Second):
		t.Fatal("settle never joined the abandoned receive")
	}
	if c.pending {
		t.Fatal("pending still set after settle")
	}
	// Recovery rewrites the staging buffers; settle made this race-free.
	staged = staged[:0]

	c.recvReq <- 2
	c.pending = true
	if err := <-c.recvRes; err == nil || err.Error() != "step 2" {
		t.Fatalf("step 2 read receive result %v, want step 2's", err)
	}
	c.pending = false
	if len(staged) != 1 || staged[0] != 2 {
		t.Fatalf("staging holds %v, want [2]", staged)
	}
	c.settle() // nothing pending: returns at once
}
