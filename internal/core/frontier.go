package core

import "repro/internal/comm"

// frontier is a job runner's active set: the vertices whose value changed in
// the previous superstep. It drives both halves of sparse-superstep handling
// (docs/ARCHITECTURE.md, "Sparse supersteps"): tiles none of whose sources
// are active are skipped without being loaded (idle), and a loaded tile
// re-gathers only the rows that have an active in-neighbour
// (server.gatherActive).
//
// It has three states. Unknown — at a job's first step and after any
// wholesale rewrite of the vertex state (initJobState, restoreCheckpoint),
// when no delta exists to describe. Dense — more than a quarter of the
// vertices changed, so nearly every row has an active in-neighbour and the
// plain row loop is the cheaper sweep (PageRank lives here). Sparse —
// everything else. Only a sparse frontier skips or selects; unknown and
// dense both mean "sweep every row of every tile".
//
// runStep is the only writer (begin, then add per absorbed batch, both after
// the step's compute has finished); tile workers and the prefetcher read it
// during the next step's compute, when nothing writes.
type frontier struct {
	bits []uint64 // |V| bits; bit v set ⇔ v changed last step (valid while sparse)
	// ids lists the same set while it has at most idLimit members — the
	// probe keys of the tiles' Bloom filters (§III-C-4), which are only
	// worth consulting for a handful of keys. idsFull marks an overflow.
	ids     []uint32
	idsFull bool
	idLimit int
	count   int  // vertices changed last step
	denseAt int  // count above which the frontier is dense: |V|/4
	known   bool // false = unknown
}

// reset marks the frontier unknown.
func (f *frontier) reset() { f.known = false }

// begin starts recording a new step's changes over n vertices.
func (f *frontier) begin(n uint32, idLimit int) {
	if words := (int(n) + 63) / 64; len(f.bits) != words {
		f.bits = make([]uint64, words)
	} else {
		clear(f.bits)
	}
	f.ids, f.idsFull, f.idLimit = f.ids[:0], false, idLimit
	f.count, f.denseAt = 0, int(n/4)
	f.known = true
}

// add records one absorbed update batch; a no-op while the frontier is
// unknown (tile skipping off: begin is never called). Every vertex is the
// target of exactly one tile, so batches never repeat an id and count is
// exact. Once the frontier has gone dense the bitmap is no longer consulted
// and is left partially filled.
func (f *frontier) add(ups []comm.Update) {
	if !f.known {
		return
	}
	f.count += len(ups)
	if f.count > f.denseAt {
		return
	}
	for _, u := range ups {
		f.bits[u.ID>>6] |= 1 << (u.ID & 63)
	}
	if f.idsFull {
		return
	}
	if f.count > f.idLimit {
		f.ids, f.idsFull = f.ids[:0], true
		return
	}
	for _, u := range ups {
		f.ids = append(f.ids, u.ID)
	}
}

// sparse reports whether the frontier may be used to skip tiles and select
// rows.
func (f *frontier) sparse() bool { return f.known && f.count <= f.denseAt }

// idle reports whether the tile described by m has no active source and can
// be skipped outright: the one predicate processTile and the prefetcher
// share, so the prefetcher never stages a tile the sweep will skip. The
// source-range test is exact up to bitmap-word granularity and works for any
// frontier size; the tile's Bloom filter refines it while the frontier is
// small enough to enumerate.
func (f *frontier) idle(m *tileMeta) bool {
	if !f.sparse() {
		return false
	}
	if m.srcMin > m.srcMax || !f.activeIn(m.srcMin, m.srcMax) {
		return true // no edges at all, or no source changed
	}
	return !f.idsFull && m.filter != nil && !m.filter.ContainsAny(f.ids)
}

// activeIn reports whether any bitmap word overlapping [lo, hi] has a bit
// set.
func (f *frontier) activeIn(lo, hi uint32) bool {
	for _, w := range f.bits[lo>>6 : hi>>6+1] {
		if w != 0 {
			return true
		}
	}
	return false
}
