package disk

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestBatchFrameRoundTrip(t *testing.T) {
	cases := [][][]byte{
		{},
		{[]byte("a")},
		{[]byte(""), []byte("xy"), []byte("")},
		{bytes.Repeat([]byte{7}, 300), []byte("b"), bytes.Repeat([]byte{9}, 1<<14)},
	}
	for _, parts := range cases {
		frame := AppendBatchFrame(nil, parts...)
		got, err := DecodeBatchFrame(frame, nil)
		if err != nil {
			t.Fatalf("decode %d parts: %v", len(parts), err)
		}
		if len(got) != len(parts) {
			t.Fatalf("decoded %d parts, want %d", len(got), len(parts))
		}
		for i := range parts {
			if !bytes.Equal(got[i], parts[i]) {
				t.Fatalf("part %d mismatch", i)
			}
		}
	}
	// The parts scratch is reused when it has capacity.
	frame := AppendBatchFrame(nil, []byte("p"), []byte("q"))
	scratch := make([][]byte, 0, 8)
	got, err := DecodeBatchFrame(frame, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &scratch[:1][0] {
		t.Fatal("decode did not reuse the parts scratch")
	}
}

func TestBatchFrameDecodeRejectsMalformed(t *testing.T) {
	good := AppendBatchFrame(nil, []byte("abc"), []byte("defg"))
	bad := [][]byte{
		nil,
		{},
		{0x00},                                  // wrong magic
		good[:1],                                // magic only
		good[:len(good)-1],                      // truncated payload
		append(append([]byte{}, good...), 0xFF), // trailing junk
		{batchFrameMagic, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},       // huge count
		{batchFrameMagic, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, // huge length
		{batchFrameMagic, 0x80, 0x00},             // padded count varint (non-canonical zero)
		{batchFrameMagic, 0x01, 0x81, 0x00, 0x61}, // padded length varint
	}
	for i, frame := range bad {
		if _, err := DecodeBatchFrame(frame, nil); err == nil {
			t.Fatalf("malformed frame %d decoded without error", i)
		}
	}
}

// FuzzDecodeBatchFrame drives the frame parser with arbitrary bytes: it must
// never panic, and any frame it accepts must re-encode to the identical
// bytes.
func FuzzDecodeBatchFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{batchFrameMagic})
	f.Add(AppendBatchFrame(nil))
	f.Add(AppendBatchFrame(nil, []byte("a"), []byte(""), []byte("xyz")))
	f.Add([]byte{batchFrameMagic, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Fuzz(func(t *testing.T, frame []byte) {
		parts, err := DecodeBatchFrame(frame, nil)
		if err != nil {
			return
		}
		back := AppendBatchFrame(nil, parts...)
		if !bytes.Equal(back, frame) {
			t.Fatalf("accepted frame does not round-trip: %x vs %x", frame, back)
		}
	})
}

func TestReadBatch(t *testing.T) {
	s := newTestStore(t, Config{})
	want := [][]byte{[]byte("alpha"), bytes.Repeat([]byte{3}, 2000), []byte("")}
	names := make([]string, len(want))
	for i, p := range want {
		names[i] = fmt.Sprintf("tiles/t%d", i)
		if err := s.Write(names[i], p); err != nil {
			t.Fatal(err)
		}
	}
	s.ResetCounters()
	frame, err := s.ReadBatch(names, nil)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := DecodeBatchFrame(frame, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !bytes.Equal(parts[i], want[i]) {
			t.Fatalf("part %d mismatch", i)
		}
	}
	// One device op, per-blob accounting in BatchedReads and ReadBytes.
	c := s.Counters()
	if c.ReadOps != 1 || c.BatchedReads != 3 || c.ReadBytes != 2005 {
		t.Fatalf("batch counters %+v", c)
	}

	// Any missing member fails the whole batch.
	if _, err := s.ReadBatch([]string{names[0], "nope"}, nil); err == nil {
		t.Fatal("batch with a missing blob succeeded")
	}

	// An injected fault on any member fails the whole batch.
	boom := errors.New("injected I/O error")
	s.SetFailureHook(func(op, name string) error {
		if op == "read" && name == names[1] {
			return boom
		}
		return nil
	})
	if _, err := s.ReadBatch(names, nil); !errors.Is(err, boom) {
		t.Fatalf("batch ignored the failure hook: %v", err)
	}
}

func TestReadBatchChargesLatencyOnce(t *testing.T) {
	// Four blobs, 20ms per-op latency, no bandwidth cap: a batch charges
	// one latency, four singles charge four.
	s := newTestStore(t, Config{ReadLatency: 20 * time.Millisecond})
	names := make([]string, 4)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
		if err := s.Write(names[i], []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	if _, err := s.ReadBatch(names, nil); err != nil {
		t.Fatal(err)
	}
	batched := time.Since(start)

	start = time.Now()
	for _, name := range names {
		if _, err := s.Read(name); err != nil {
			t.Fatal(err)
		}
	}
	single := time.Since(start)

	if batched > 60*time.Millisecond {
		t.Fatalf("batched read took %v, want ~1 latency charge (20ms)", batched)
	}
	if single < 70*time.Millisecond {
		t.Fatalf("four single reads took %v, want ~4 latency charges (80ms)", single)
	}
}

func TestQueueCounters(t *testing.T) {
	// Saturate a slow device with concurrent reads: ops must queue and the
	// high-water mark must reflect the overlap.
	s := newTestStore(t, Config{ReadBandwidth: 10 << 20, ReadLatency: time.Millisecond})
	payload := make([]byte, 256<<10)
	if err := s.Write("x", payload); err != nil {
		t.Fatal(err)
	}
	s.ResetCounters()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Read("x"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	c := s.Counters()
	if c.QueuedOps == 0 {
		t.Fatalf("4 concurrent reads on a saturated device queued none: %+v", c)
	}
	if c.QueueHighWater < 2 {
		t.Fatalf("queue high-water %d, want ≥2 with 4 concurrent reads", c.QueueHighWater)
	}
	s.ResetCounters()
	if c := s.Counters(); c.QueuedOps != 0 || c.QueueHighWater != 0 {
		t.Fatalf("queue counters not reset: %+v", c)
	}
}

func TestAsyncReader(t *testing.T) {
	s := newTestStore(t, Config{})
	var names []string
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("t%d", i)
		if err := s.Write(name, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	done := make(chan *ReadOp, 2)
	r := s.NewAsyncReader(2, func(op *ReadOp) { done <- op })
	defer r.Close()

	// Two batches in flight; completions carry the Tag back.
	r.Submit(&ReadOp{Names: names[:4], Tag: "first"})
	r.Submit(&ReadOp{Names: names[4:], Tag: "second"})
	seen := map[string][][]byte{}
	for i := 0; i < 2; i++ {
		op := <-done
		if op.Err != nil {
			t.Fatal(op.Err)
		}
		parts, err := DecodeBatchFrame(op.Frame, nil)
		if err != nil {
			t.Fatal(err)
		}
		seen[op.Tag.(string)] = parts
	}
	for i, p := range seen["first"] {
		if len(p) != 1 || p[0] != byte(i) {
			t.Fatalf("first batch part %d = %v", i, p)
		}
	}
	for i, p := range seen["second"] {
		if len(p) != 1 || p[0] != byte(4+i) {
			t.Fatalf("second batch part %d = %v", i, p)
		}
	}

	// Errors surface on the op, and the reader keeps serving afterwards.
	r.Submit(&ReadOp{Names: []string{"missing"}, Tag: "bad"})
	if op := <-done; op.Err == nil {
		t.Fatal("missing blob read completed without error")
	}
	r.Submit(&ReadOp{Names: names[:1], Tag: "after"})
	if op := <-done; op.Err != nil {
		t.Fatalf("reader dead after an error: %v", op.Err)
	}
}

func TestAsyncReaderCloseDrains(t *testing.T) {
	s := newTestStore(t, Config{})
	if err := s.Write("a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var completed int
	r := s.NewAsyncReader(1, func(op *ReadOp) {
		mu.Lock()
		completed++
		mu.Unlock()
	})
	ops := [3]ReadOp{}
	for i := range ops {
		ops[i].Names = []string{"a"}
		r.Submit(&ops[i])
	}
	r.Close()
	mu.Lock()
	defer mu.Unlock()
	if completed != 3 {
		t.Fatalf("Close drained %d ops, want 3", completed)
	}
}

func TestFDCacheBounded(t *testing.T) {
	s := newTestStore(t, Config{MaxCachedFDs: 4})
	var names []string
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("t%d", i)
		if err := s.Write(name, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	// Sweep everything twice: the cache must stay at its cap and every
	// evicted blob must still read correctly on the next pass.
	for pass := 0; pass < 2; pass++ {
		for i, name := range names {
			got, err := s.Read(name)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || got[0] != byte(i) {
				t.Fatalf("pass %d blob %d read back %v", pass, i, got)
			}
			if n := s.cachedFDs(); n > 4 {
				t.Fatalf("fd cache grew to %d, cap is 4", n)
			}
		}
	}
	// Recency is retained: hammer one blob, then sweep the rest; the hot
	// blob must survive in the cache the whole time.
	for i := 0; i < 4; i++ {
		if _, err := s.Read(names[0]); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range names[1:] {
		if _, err := s.Read(name); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Read(names[0]); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.cachedFDs(); n != 4 {
		t.Fatalf("fd cache holds %d entries after sweeps, want cap 4", n)
	}
}

func TestFDCacheInvalidation(t *testing.T) {
	// Rewriting or removing a blob must drop its cached fd so the next read
	// sees the new bytes (not a stale descriptor of the replaced inode).
	s := newTestStore(t, Config{MaxCachedFDs: 4})
	if err := s.Write("a", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Read("a"); string(got) != "old" {
		t.Fatalf("read %q", got)
	}
	if err := s.Write("a", []byte("new!")); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Read("a"); err != nil || string(got) != "new!" {
		t.Fatalf("read after rewrite: %q, %v", got, err)
	}
	if err := s.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read("a"); err == nil {
		t.Fatal("read of a removed blob succeeded via a stale fd")
	}
}
