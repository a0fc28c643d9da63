package disk

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newTestStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := NewStore(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := newTestStore(t, Config{})
	data := []byte("tile payload bytes")
	if err := s.Write("tiles/tile-0001", data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read("tiles/tile-0001")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read back %q, want %q", got, data)
	}
}

func TestCounters(t *testing.T) {
	s := newTestStore(t, Config{})
	payload := make([]byte, 1000)
	if err := s.Write("a", payload); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read("a"); err != nil {
		t.Fatal(err)
	}
	c := s.Counters()
	if c.WriteBytes != 1000 || c.WriteOps != 1 {
		t.Fatalf("write counters %+v", c)
	}
	if c.ReadBytes != 2000 || c.ReadOps != 2 {
		t.Fatalf("read counters %+v", c)
	}
	s.ResetCounters()
	if c := s.Counters(); c != (Counters{}) {
		t.Fatalf("counters not reset: %+v", c)
	}
}

func TestThrottleEnforcesBandwidth(t *testing.T) {
	// 1 MB at 10 MB/s must take ≥ ~100ms.
	s := newTestStore(t, Config{ReadBandwidth: 10 << 20})
	payload := make([]byte, 1<<20)
	if err := s.Write("big", payload); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := s.Read("big"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("1MB @ 10MB/s took %v, want ≥ ~100ms", elapsed)
	}
}

func TestThrottleSharedAcrossWorkers(t *testing.T) {
	// Two concurrent 0.5MB reads at 10MB/s share the device: total ≥ ~100ms.
	s := newTestStore(t, Config{ReadBandwidth: 10 << 20})
	payload := make([]byte, 512<<10)
	if err := s.Write("x", payload); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Read("x"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("two shared reads finished in %v; bandwidth not shared", elapsed)
	}
}

func TestReadMissing(t *testing.T) {
	s := newTestStore(t, Config{})
	if _, err := s.Read("nope"); err == nil {
		t.Fatal("missing blob read succeeded")
	}
}

func TestRemoveAndExists(t *testing.T) {
	s := newTestStore(t, Config{})
	if err := s.Write("z", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if !s.Exists("z") {
		t.Fatal("blob should exist")
	}
	if err := s.Remove("z"); err != nil {
		t.Fatal(err)
	}
	if s.Exists("z") {
		t.Fatal("blob should be gone")
	}
	if err := s.Remove("z"); err == nil {
		t.Fatal("double remove succeeded")
	}
}

func TestList(t *testing.T) {
	s := newTestStore(t, Config{})
	for _, name := range []string{"tiles/t2", "tiles/t0", "tiles/t1", "other/x"} {
		if err := s.Write(name, []byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	names, err := s.List("tiles/")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"tiles/t0", "tiles/t1", "tiles/t2"}
	if len(names) != len(want) {
		t.Fatalf("List = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("List = %v, want %v", names, want)
		}
	}
}

func TestPathTraversalRejected(t *testing.T) {
	s := newTestStore(t, Config{})
	if err := s.Write("../escape", []byte("x")); err == nil {
		t.Fatal("path traversal write accepted")
	}
	if _, err := s.Read("/etc/passwd"); err == nil {
		t.Fatal("absolute path read accepted")
	}
}

func TestFailureInjection(t *testing.T) {
	s := newTestStore(t, Config{})
	if err := s.Write("a", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected I/O error")
	s.SetFailureHook(func(op, name string) error {
		if op == "read" && name == "a" {
			return boom
		}
		return nil
	})
	if _, err := s.Read("a"); !errors.Is(err, boom) {
		t.Fatalf("hook not applied: %v", err)
	}
	if err := s.Write("b", []byte("ok")); err != nil {
		t.Fatalf("unrelated op blocked: %v", err)
	}
	s.SetFailureHook(nil)
	if _, err := s.Read("a"); err != nil {
		t.Fatalf("hook not cleared: %v", err)
	}
}

// TestFailureInjectionCoversEveryOp verifies each of the five exported
// store operations consults the failure hook with its own op tag — the
// fault-injection harness scripts faults per operation, so a store op that
// bypassed the hook would be untestable.
func TestFailureInjectionCoversEveryOp(t *testing.T) {
	s := newTestStore(t, Config{})
	if err := s.Write("seed", []byte("x")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected I/O error")
	var failOp string
	var calls []string
	s.SetFailureHook(func(op, name string) error {
		calls = append(calls, op)
		if op == failOp {
			return boom
		}
		return nil
	})

	failOp = "write"
	if err := s.Write("w", []byte("x")); !errors.Is(err, boom) {
		t.Fatalf("Write ignored the hook: %v", err)
	}
	if err := s.Write("seed", []byte("torn")); !errors.Is(err, boom) {
		t.Fatalf("Write over an existing blob ignored the hook: %v", err)
	}
	if s.Exists("w") {
		t.Fatal("a failed write left a blob behind")
	}

	failOp = "read"
	if _, err := s.Read("seed"); !errors.Is(err, boom) {
		t.Fatalf("Read ignored the hook: %v", err)
	}
	if _, err := s.ReadInto("seed", nil); !errors.Is(err, boom) {
		t.Fatalf("ReadInto ignored the hook: %v", err)
	}

	failOp = "remove"
	if err := s.Remove("seed"); !errors.Is(err, boom) {
		t.Fatalf("Remove ignored the hook: %v", err)
	}
	failOp = "exists"
	if s.Exists("seed") {
		t.Fatal("Exists ignored the hook (blob still on disk must report false under a fault)")
	}
	failOp = "list"
	if _, err := s.List(""); !errors.Is(err, boom) {
		t.Fatalf("List ignored the hook: %v", err)
	}

	// The blob survived the faulted remove and is visible once the hook is
	// lifted — the hook fails operations, it does not corrupt state.
	s.SetFailureHook(nil)
	if !s.Exists("seed") {
		t.Fatal("faulted Remove actually removed the blob")
	}
	if got, err := s.Read("seed"); err != nil || string(got) != "x" {
		t.Fatalf("faulted rewrite changed the blob: %q, %v", got, err)
	}
	for _, want := range []string{"write", "read", "remove", "exists", "list"} {
		found := false
		for _, op := range calls {
			if op == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("hook never saw op %q (saw %v)", want, calls)
		}
	}
}

// TestWriteRacingReader: readers that race rewrites of one name always see a
// whole blob — the replaced one or its successor, never a torn or short mix,
// even through the descriptor cache — and the last blob once writes stop.
func TestWriteRacingReader(t *testing.T) {
	s := newTestStore(t, Config{MaxCachedFDs: 4})
	// Version i is len(blob(i)) bytes of value i: fill and length agree only
	// for a whole blob.
	blob := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 1000+i*397%4000) }
	const versions = 200
	if err := s.Write("b", blob(0)); err != nil {
		t.Fatal(err)
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for !done.Load() {
				got, err := s.ReadInto("b", buf[:0])
				if err != nil {
					errs <- err
					return
				}
				if len(got) == 0 || !bytes.Equal(got, blob(int(got[0]))) {
					errs <- fmt.Errorf("read a torn or short blob of %d bytes", len(got))
					return
				}
				buf = got
			}
		}()
	}
	for i := 1; i <= versions; i++ {
		if err := s.Write("b", blob(i)); err != nil {
			t.Fatal(err)
		}
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, err := s.Read("b"); err != nil || !bytes.Equal(got, blob(versions)) {
		t.Fatalf("read after the last rewrite: %d bytes, %v", len(got), err)
	}
	if names, err := s.List(""); err != nil || len(names) != 1 {
		t.Fatalf("rewrites left temporary files behind: %v, %v", names, err)
	}
}
