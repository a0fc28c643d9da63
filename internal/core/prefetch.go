package core

import (
	"sync"

	"repro/internal/cache"
	"repro/internal/costmodel"
	"repro/internal/csr"
	"repro/internal/disk"
)

// Sweep-ahead tile prefetcher. A superstep visits a server's tiles in a
// fixed cyclic order, so the next misses are perfectly predictable: they are
// the upcoming non-resident, non-skipped tiles of the sweep. The prefetcher
// exploits that — the feed loop reports its position (reach), the prefetcher
// stages the next few tiles via batched background reads, and the demand
// path claims them (take) instead of blocking on a synchronous disk read.
//
// Slot state machine (one slot per staged tile, recycled through a
// freelist):
//
//	pending  — selected by reach, not yet issued to the async reader
//	inflight — part of a submitted batch; takers block on the cond
//	staged   — decoded and ready (or failed, with err set); take claims it
//
// A slot leaves the machine through take (hit), through a failed read
// (wasted; the demand path retries synchronously — an injected disk fault
// during a prefetch must not kill the job), or at restart when the sweep
// ended without claiming it (wasted).
//
// Admission is NOT the prefetcher's business: a taken tile is offered to the
// cache through cache.AdmitLoaded at exactly demand-miss parity, so
// prefetching can never thrash the eviction policy — it only changes where
// the bytes come from, never what the cache retains. Under the streaming
// residency tier the cache is bypassed entirely and staged tiles flow
// through the workers' pooled scratch.
type prefetcher struct {
	store  *disk.Store
	cache  *cache.Cache
	reader *disk.AsyncReader

	mu   sync.Mutex
	cond *sync.Cond // signalled when a batch completes

	// Current sweep parameters (set by restart, read by reach): the tile
	// order, the runner's frontier — whose idle predicate processTile also
	// applies, so the prefetcher never reads a tile the sweep will skip —
	// and whether residents should be skipped (cached residency only).
	metas    []*tileMeta
	frontier *frontier
	useCache bool

	slots     []*pfSlot // by tile id; nil = not staged
	freeSlots []*pfSlot
	pending   []*pfSlot
	freeOps   []*pfOp
	next      int // metas index the selection has reached
	inflight  int
	depth     int
	ioDepth   int
	batch     int

	issued int64 // tiles handed to the async reader (session-cumulative)
	hits   int64 // staged tiles claimed by the demand path
	wasted int64 // staged tiles never claimed, or failed reads
}

type pfState uint8

const (
	pfPending pfState = iota
	pfInflight
	pfStaged
)

// pfSlot is one staged tile. The decoded tile's arrays are recycled with
// the slot, and take swaps them against the claimer's scratch, so the
// steady state allocates nothing.
type pfSlot struct {
	id    int
	blob  string
	state pfState
	err   error
	tile  csr.Tile
}

// pfOp is one batched read in flight. op.Tag points back at the pfOp, so
// the completion callback recovers it without any per-op allocation.
type pfOp struct {
	op    disk.ReadOp
	slots []*pfSlot
	parts [][]byte
}

// pfBatchSize is how many tile reads coalesce into one device operation —
// one ReadLatency charge per batch instead of per tile.
const pfBatchSize = 4

// newPrefetcher starts a prefetcher with the given sweep-ahead window over
// a store of total tiles. useCache skips cache-resident tiles during
// selection (cached residency); streaming passes false — nothing is ever
// resident. The async reader's workers live until close.
func newPrefetcher(store *disk.Store, c *cache.Cache, total, depth int, useCache bool) *prefetcher {
	p := &prefetcher{
		store:    store,
		cache:    c,
		slots:    make([]*pfSlot, total),
		depth:    depth,
		ioDepth:  costmodel.PrefetchIODepth(depth, pfBatchSize),
		batch:    pfBatchSize,
		useCache: useCache,
	}
	p.cond = sync.NewCond(&p.mu)
	p.reader = store.NewAsyncReader(p.ioDepth, p.complete)
	return p
}

// restart begins a new sweep: pending selections are recycled (never
// issued, so they cost nothing), in-flight batches are drained, and staged
// tiles the previous sweep never claimed are flushed as wasted. The sweep
// parameters are plain values, not a closure, so restarting allocates
// nothing. fr must not be written while the sweep runs.
func (p *prefetcher) restart(metas []*tileMeta, fr *frontier) {
	p.mu.Lock()
	for _, sl := range p.pending {
		p.slots[sl.id] = nil
		p.recycleSlotLocked(sl)
	}
	p.pending = p.pending[:0]
	for p.inflight > 0 {
		p.cond.Wait()
	}
	for id, sl := range p.slots {
		if sl != nil {
			p.wasted++
			p.slots[id] = nil
			p.recycleSlotLocked(sl)
		}
	}
	p.metas, p.frontier = metas, fr
	p.next = 0
	p.mu.Unlock()
}

// reach tells the prefetcher the sweep will soon need metas[upto]: every
// tile up to that position that the sweep will actually load (not
// idle-skipped, not cache-resident, not already staged) becomes a pending
// selection, and full batches are issued as long as the IO-depth budget
// allows. Never blocks on I/O.
func (p *prefetcher) reach(upto int) {
	p.mu.Lock()
	if upto >= len(p.metas) {
		upto = len(p.metas) - 1
	}
	for p.next <= upto {
		m := p.metas[p.next]
		p.next++
		if p.frontier.idle(m) {
			continue // the sweep will skip it too
		}
		if p.slots[m.id] != nil {
			continue
		}
		if p.useCache && p.cache.Contains(m.id) {
			continue // resident: the demand access will hit
		}
		sl := p.newSlotLocked()
		sl.id = m.id
		sl.blob = m.blob
		sl.state = pfPending
		p.slots[m.id] = sl
		p.pending = append(p.pending, sl)
	}
	p.flushLocked()
	p.mu.Unlock()
}

// flushLocked issues pending selections to the async reader: immediately
// when the device is idle (overlap beats batching an idle disk), otherwise
// only in full batches, and never beyond the IO-depth budget. The budget
// also guarantees Submit never blocks (the reader's queue is ioDepth deep),
// so flushLocked is safe to call under p.mu.
func (p *prefetcher) flushLocked() {
	for len(p.pending) > 0 && p.inflight < p.ioDepth && (p.inflight == 0 || len(p.pending) >= p.batch) {
		n := len(p.pending)
		if n > p.batch {
			n = p.batch
		}
		op := p.newOpLocked()
		op.op.Names = op.op.Names[:0]
		op.slots = op.slots[:0]
		for _, sl := range p.pending[:n] {
			sl.state = pfInflight
			op.op.Names = append(op.op.Names, sl.blob)
			op.slots = append(op.slots, sl)
		}
		copy(p.pending, p.pending[n:])
		p.pending = p.pending[:len(p.pending)-n]
		p.inflight++
		p.issued += int64(n)
		p.reader.Submit(&op.op)
	}
}

// take claims the staged tile with the given id. A pending selection is
// handed back to the demand path unread (a synchronous read is no slower
// than waiting for a batch slot); an in-flight one is waited for; a staged
// one swaps its decoded arrays against dst's and returns dst. A failed
// prefetch returns nil with the slot retired as wasted — the caller's
// demand read is the retry.
func (p *prefetcher) take(id int, dst *csr.Tile) *csr.Tile {
	p.mu.Lock()
	sl := p.slots[id]
	if sl == nil {
		p.mu.Unlock()
		return nil
	}
	if sl.state == pfPending {
		for i, q := range p.pending {
			if q == sl {
				copy(p.pending[i:], p.pending[i+1:])
				p.pending = p.pending[:len(p.pending)-1]
				break
			}
		}
		p.slots[id] = nil
		p.recycleSlotLocked(sl)
		p.mu.Unlock()
		return nil
	}
	for sl.state == pfInflight {
		p.cond.Wait()
	}
	p.slots[id] = nil
	if sl.err != nil {
		p.wasted++
		p.recycleSlotLocked(sl)
		p.mu.Unlock()
		return nil
	}
	// Struct swap: the claimer gets the decoded tile, the slot pool gets
	// the claimer's scratch arrays for the next decode.
	sl.tile, *dst = *dst, sl.tile
	p.hits++
	p.recycleSlotLocked(sl)
	p.mu.Unlock()
	return dst
}

// complete is the async reader's done callback: split the batch frame and
// decode each blob into its slot's tile, then publish the slots as staged.
// Decoding outside the lock is safe — takers wait on the slot state under
// the lock until it flips below.
func (p *prefetcher) complete(rop *disk.ReadOp) {
	op := rop.Tag.(*pfOp)
	if rop.Err == nil {
		parts, err := disk.DecodeBatchFrame(rop.Frame, op.parts)
		if err != nil {
			rop.Err = err
		} else {
			op.parts = parts
			for i, sl := range op.slots {
				if derr := csr.DecodeInto(&sl.tile, parts[i]); derr != nil {
					sl.err = derr
				}
			}
		}
	}
	p.mu.Lock()
	for _, sl := range op.slots {
		if rop.Err != nil {
			sl.err = rop.Err
		}
		sl.state = pfStaged
	}
	p.inflight--
	p.recycleOpLocked(op)
	p.flushLocked()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// drain parks the prefetcher between jobs: in-flight batches finish and
// every unclaimed slot is flushed. Stats survive — they are
// session-cumulative, like the disk and cache counters.
func (p *prefetcher) drain() {
	p.restart(nil, nil)
}

// close drains and stops the reader workers.
func (p *prefetcher) close() {
	p.drain()
	p.reader.Close()
}

// statsSnapshot returns the session-cumulative counters.
func (p *prefetcher) statsSnapshot() (issued, hits, wasted int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.issued, p.hits, p.wasted
}

func (p *prefetcher) newSlotLocked() *pfSlot {
	if n := len(p.freeSlots); n > 0 {
		sl := p.freeSlots[n-1]
		p.freeSlots = p.freeSlots[:n-1]
		return sl
	}
	return new(pfSlot)
}

func (p *prefetcher) recycleSlotLocked(sl *pfSlot) {
	sl.err = nil
	p.freeSlots = append(p.freeSlots, sl)
}

func (p *prefetcher) newOpLocked() *pfOp {
	if n := len(p.freeOps); n > 0 {
		op := p.freeOps[n-1]
		p.freeOps = p.freeOps[:n-1]
		return op
	}
	op := new(pfOp)
	op.op.Tag = op
	return op
}

func (p *prefetcher) recycleOpLocked(op *pfOp) {
	p.freeOps = append(p.freeOps, op)
}
