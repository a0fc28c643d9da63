// Package disk models the local secondary storage of a compute server.
//
// The paper's testbed stores tiles on 4×4 TB HDDs (RAID5) with roughly
// 310 MB/s of sequential bandwidth shared by all workers of a server (§IV-B).
// This package wraps real file I/O in a token-bucket style bandwidth
// throttle and byte/op counters so that (a) out-of-core data movement incurs
// a realistic, configurable cost even when the OS page cache would hide it,
// and (b) experiments can report exact disk-traffic volumes. A zero-valued
// Config disables throttling, leaving only accounting.
package disk

import (
	"container/list"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config controls the disk model.
type Config struct {
	// ReadBandwidth and WriteBandwidth are in bytes per second; zero means
	// unthrottled. All workers of a server share the same budget, as they
	// share the RAID array in the paper's testbed.
	ReadBandwidth  int64
	WriteBandwidth int64
	// ReadLatency is a fixed per-operation cost charged on every read in
	// addition to the bandwidth term — the seek/request overhead that makes
	// many small reads slower than one coalesced read of the same bytes.
	// ReadBatch pays it once for the whole batch, which is what makes
	// coalescing worthwhile under the model. Zero (the default) charges
	// nothing, preserving the pure-bandwidth model.
	ReadLatency time.Duration
	// MaxCachedFDs bounds the store's read-descriptor cache (0 means
	// DefaultMaxCachedFDs). Least-recently-read handles are evicted when the
	// cap is reached, so billion-edge tile counts cannot exhaust file
	// descriptors while the hot set still reads through cached handles.
	MaxCachedFDs int
}

// Counters reports accumulated disk traffic.
// The json tags pin the wire schema nested under ServerStats.Disk in the
// graphhd daemon's JSON output; keep the lower_snake names stable.
type Counters struct {
	ReadBytes  int64 `json:"read_bytes"`
	WriteBytes int64 `json:"write_bytes"`
	ReadOps    int64 `json:"read_ops"`
	WriteOps   int64 `json:"write_ops"`
	// BatchedReads counts blobs served through ReadBatch (each batch is one
	// ReadOp but reads many blobs; this counter keeps per-blob accounting).
	BatchedReads int64 `json:"batched_reads"`
	// QueuedOps counts operations that arrived while the simulated device
	// was still busy with earlier transfers; QueueHighWater is the largest
	// number of operations ever simultaneously in flight (queued + active).
	// Together they expose how deep the IO pipeline actually ran.
	QueuedOps      int64 `json:"queued_ops"`
	QueueHighWater int64 `json:"queue_high_water"`
}

// Store is a directory-backed, bandwidth-throttled blob store. It is safe
// for concurrent use; concurrent operations serialize on the simulated
// device the way requests queue on a real disk.
type Store struct {
	dir string
	cfg Config

	readBytes    atomic.Int64
	writeBytes   atomic.Int64
	readOps      atomic.Int64
	writeOps     atomic.Int64
	batchedReads atomic.Int64
	queuedOps    atomic.Int64
	inflightOps  atomic.Int64
	queueHW      atomic.Int64

	// busyUntil implements the shared-bandwidth model: each transfer
	// reserves a slot [busyUntil, busyUntil+duration) on the device and
	// sleeps until its reservation completes.
	mu        sync.Mutex
	busyUntil time.Time

	// failHook, when non-nil, is consulted before every operation; a
	// non-nil return aborts the operation with that error. Tests use it to
	// inject I/O failures.
	failHook atomic.Value // func(op, name string) error

	// fds caches open read handles: tile blobs are written once and then
	// re-read every superstep, so keeping the descriptor open turns each
	// load into a single pread instead of open+stat+read+close. The cache is
	// a true LRU bounded by Config.MaxCachedFDs: inserting at the cap evicts
	// the least-recently-read handle, so the hot set always reads through a
	// cached descriptor regardless of which blobs happened to load first
	// (adopted tiles included).
	fdMu  sync.Mutex
	fds   map[string]*cachedFile
	fdLRU *list.List // front = most recently read
	fdCap int
	// writeGen counts completed Writes. A handle opened while one completed
	// may be the replaced blob's, so openRead serves its read uncached.
	writeGen atomic.Int64
}

// cachedFile is one cached read handle with its (immutable-until-rewritten)
// size and its position in the recency list. refs (guarded by fdMu) counts
// one reference for cache residency plus one per in-flight read, so an
// eviction or invalidation never closes a descriptor under an active pread
// — the last reference out closes it.
type cachedFile struct {
	f    *os.File
	size int64
	name string
	elem *list.Element
	refs int
}

// DefaultMaxCachedFDs is the descriptor-cache bound when Config leaves
// MaxCachedFDs zero.
const DefaultMaxCachedFDs = 256

// NewStore creates a store rooted at dir, creating the directory if needed.
func NewStore(dir string, cfg Config) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("disk: creating store dir: %w", err)
	}
	cap := cfg.MaxCachedFDs
	if cap <= 0 {
		cap = DefaultMaxCachedFDs
	}
	return &Store{dir: dir, cfg: cfg, fds: make(map[string]*cachedFile), fdLRU: list.New(), fdCap: cap}, nil
}

// Close releases all cached read handles. The store remains usable; later
// reads reopen files as needed.
func (s *Store) Close() error {
	s.fdMu.Lock()
	defer s.fdMu.Unlock()
	var first error
	for name, cf := range s.fds {
		delete(s.fds, name)
		cf.refs--
		if cf.refs == 0 {
			if err := cf.f.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	s.fdLRU.Init()
	return first
}

// invalidate drops a cached handle after its blob is replaced or removed.
// An in-flight read keeps the descriptor alive until it releases it.
func (s *Store) invalidate(name string) {
	s.fdMu.Lock()
	cf, ok := s.fds[name]
	if ok {
		delete(s.fds, name)
		s.fdLRU.Remove(cf.elem)
		cf.refs--
		ok = cf.refs == 0
	}
	s.fdMu.Unlock()
	if ok {
		cf.f.Close()
	}
}

// openRead returns a referenced read handle for the named blob through the
// LRU descriptor cache: a hit refreshes the handle's recency, a miss opens
// the blob and caches the handle, evicting the least-recently-read one when
// the cache is at capacity. The caller must release the handle with
// releaseRead after its pread. The blob path is only materialized on a
// descriptor-cache miss, keeping warm reads allocation-free.
func (s *Store) openRead(name string) (*cachedFile, error) {
	s.fdMu.Lock()
	if cf, ok := s.fds[name]; ok {
		s.fdLRU.MoveToFront(cf.elem)
		cf.refs++
		s.fdMu.Unlock()
		return cf, nil
	}
	s.fdMu.Unlock()
	path, err := s.path(name)
	if err != nil {
		return nil, err
	}
	gen := s.writeGen.Load()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	cf := &cachedFile{f: f, size: info.Size(), name: name}
	var evicted *cachedFile
	s.fdMu.Lock()
	if prev, ok := s.fds[name]; ok {
		// Lost an open race: reuse the winner's handle.
		s.fdLRU.MoveToFront(prev.elem)
		prev.refs++
		s.fdMu.Unlock()
		f.Close()
		return prev, nil
	}
	if s.writeGen.Load() != gen {
		// A Write completed since the open: f may be the replaced blob. It
		// is still whole, so serve this read from it, but cache nothing.
		cf.refs = 1
		s.fdMu.Unlock()
		return cf, nil
	}
	if len(s.fds) >= s.fdCap {
		if back := s.fdLRU.Back(); back != nil {
			evicted = back.Value.(*cachedFile)
			delete(s.fds, evicted.name)
			s.fdLRU.Remove(back)
			evicted.refs--
			if evicted.refs > 0 {
				evicted = nil // an active reader holds it; it closes on release
			}
		}
	}
	cf.refs = 2 // the cache's residency reference plus the caller's
	cf.elem = s.fdLRU.PushFront(cf)
	s.fds[name] = cf
	s.fdMu.Unlock()
	if evicted != nil {
		evicted.f.Close()
	}
	return cf, nil
}

// releaseRead returns a handle obtained from openRead; the last reference
// out (an evicted or invalidated handle with no remaining readers) closes
// the descriptor.
func (s *Store) releaseRead(cf *cachedFile) {
	s.fdMu.Lock()
	cf.refs--
	dead := cf.refs == 0
	s.fdMu.Unlock()
	if dead {
		cf.f.Close()
	}
}

// cachedFDs reports the current fd-cache population (test hook for the
// MaxCachedFDs bound).
func (s *Store) cachedFDs() int {
	s.fdMu.Lock()
	defer s.fdMu.Unlock()
	return len(s.fds)
}

// Dir returns the backing directory.
func (s *Store) Dir() string { return s.dir }

// SetFailureHook installs (or clears, with nil) a failure-injection hook
// called with the operation name ("read", "write", "remove", "exists",
// "list") before each exported operation. Every exported op consults the
// hook, so a fault plan can fail any disk interaction deterministically.
func (s *Store) SetFailureHook(hook func(op, name string) error) {
	if hook == nil {
		s.failHook.Store((func(op, name string) error)(nil))
		return
	}
	s.failHook.Store(hook)
}

func (s *Store) checkFail(op, name string) error {
	if v := s.failHook.Load(); v != nil {
		if hook, _ := v.(func(op, name string) error); hook != nil {
			return hook(op, name)
		}
	}
	return nil
}

// reserve blocks until the simulated device has transferred n bytes at the
// given bandwidth plus the fixed per-operation latency. Operations arriving
// while the device is still busy with earlier reservations are counted as
// queued. With bandwidth 0 and latency 0 it returns immediately — the
// unthrottled model has no device to queue on.
func (s *Store) reserve(n int, bandwidth int64, latency time.Duration) {
	d := latency
	if bandwidth > 0 && n > 0 {
		d += time.Duration(float64(n) / float64(bandwidth) * float64(time.Second))
	}
	if d <= 0 {
		return
	}
	s.mu.Lock()
	now := time.Now()
	if s.busyUntil.After(now) {
		s.queuedOps.Add(1)
	} else {
		s.busyUntil = now
	}
	s.busyUntil = s.busyUntil.Add(d)
	wakeAt := s.busyUntil
	s.mu.Unlock()
	time.Sleep(time.Until(wakeAt))
}

// beginOp and endOp bracket every throttled operation, maintaining the
// in-flight count and its high-water mark so stats expose how deep the IO
// pipeline actually ran.
func (s *Store) beginOp() {
	n := s.inflightOps.Add(1)
	for {
		hw := s.queueHW.Load()
		if n <= hw || s.queueHW.CompareAndSwap(hw, n) {
			return
		}
	}
}

func (s *Store) endOp() { s.inflightOps.Add(-1) }

func (s *Store) path(name string) (string, error) {
	if strings.Contains(name, "..") || strings.HasPrefix(name, "/") {
		return "", fmt.Errorf("disk: invalid blob name %q", name)
	}
	return filepath.Join(s.dir, name), nil
}

// Write stores data under name, replacing any previous blob, with
// all-or-nothing visibility: the bytes go to a temporary file in the same
// directory which is then renamed over the destination. A crash mid-write
// leaves either the old blob or the new one, never a torn mix — so a failure
// during checkpointing cannot destroy the previous checkpoint — and a reader
// racing a rewrite sees one whole blob or the other.
func (s *Store) Write(name string, data []byte) error {
	if err := s.checkFail("write", name); err != nil {
		return err
	}
	p, err := s.path(name)
	if err != nil {
		return err
	}
	dir := filepath.Dir(p)
	if dir != s.dir {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("disk: mkdir for %q: %w", name, err)
		}
	}
	s.beginOp()
	defer s.endOp()
	s.reserve(len(data), s.cfg.WriteBandwidth, 0)
	tmp, err := os.CreateTemp(dir, filepath.Base(p)+".tmp*")
	if err != nil {
		return fmt.Errorf("disk: writing %q: %w", name, err)
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), p)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("disk: writing %q: %w", name, err)
	}
	// Drop the handle of the replaced blob, and keep any read that opened it
	// before the rename from caching it (openRead checks writeGen).
	s.writeGen.Add(1)
	s.invalidate(name)
	s.writeBytes.Add(int64(len(data)))
	s.writeOps.Add(1)
	return nil
}

// Read returns the blob stored under name.
func (s *Store) Read(name string) ([]byte, error) {
	return s.ReadInto(name, nil)
}

// ReadInto returns the blob stored under name, reading it into dst's spare
// capacity so callers can reuse one buffer across loads. Only the blob is
// returned; it shares dst's backing array when the capacity suffices. The
// read goes through the store's descriptor cache, so a warm re-read is one
// pread and no allocations.
func (s *Store) ReadInto(name string, dst []byte) ([]byte, error) {
	if err := s.checkFail("read", name); err != nil {
		return nil, err
	}
	cf, err := s.openRead(name)
	if err != nil {
		return nil, fmt.Errorf("disk: reading %q: %w", name, err)
	}
	defer s.releaseRead(cf)
	s.beginOp()
	defer s.endOp()
	start := len(dst)
	size := int(cf.size)
	dst = slices.Grow(dst, size)[:start+size]
	if n, err := cf.f.ReadAt(dst[start:], 0); n != size {
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("disk: reading %q: %w", name, err)
	}
	data := dst[start:]
	s.reserve(len(data), s.cfg.ReadBandwidth, s.cfg.ReadLatency)
	s.readBytes.Add(int64(len(data)))
	s.readOps.Add(1)
	return data, nil
}

// Remove deletes the named blob. Removing a missing blob is an error.
func (s *Store) Remove(name string) error {
	if err := s.checkFail("remove", name); err != nil {
		return err
	}
	p, err := s.path(name)
	if err != nil {
		return err
	}
	s.invalidate(name)
	if err := os.Remove(p); err != nil {
		return fmt.Errorf("disk: removing %q: %w", name, err)
	}
	return nil
}

// Exists reports whether a blob is present. An injected "exists" failure
// reports absence — the conservative answer a flaky device gives.
func (s *Store) Exists(name string) bool {
	if err := s.checkFail("exists", name); err != nil {
		return false
	}
	p, err := s.path(name)
	if err != nil {
		return false
	}
	_, statErr := os.Stat(p)
	return statErr == nil
}

// List returns the names of all blobs with the given prefix, sorted.
func (s *Store) List(prefix string) ([]string, error) {
	if err := s.checkFail("list", prefix); err != nil {
		return nil, err
	}
	var names []string
	err := filepath.Walk(s.dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(s.dir, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if strings.HasPrefix(rel, prefix) {
			names = append(names, rel)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("disk: listing %q: %w", prefix, err)
	}
	sort.Strings(names)
	return names, nil
}

// Counters returns a snapshot of accumulated traffic.
func (s *Store) Counters() Counters {
	return Counters{
		ReadBytes:      s.readBytes.Load(),
		WriteBytes:     s.writeBytes.Load(),
		ReadOps:        s.readOps.Load(),
		WriteOps:       s.writeOps.Load(),
		BatchedReads:   s.batchedReads.Load(),
		QueuedOps:      s.queuedOps.Load(),
		QueueHighWater: s.queueHW.Load(),
	}
}

// ResetCounters zeroes the traffic counters (e.g. between supersteps). The
// queue high-water restarts from the currently in-flight depth, not zero, so
// an op spanning the reset is still accounted.
func (s *Store) ResetCounters() {
	s.readBytes.Store(0)
	s.writeBytes.Store(0)
	s.readOps.Store(0)
	s.writeOps.Store(0)
	s.batchedReads.Store(0)
	s.queuedOps.Store(0)
	s.queueHW.Store(s.inflightOps.Load())
}
