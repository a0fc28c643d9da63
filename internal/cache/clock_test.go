package cache

// Deterministic trace tests for the superstep-aware CLOCK/k-chance policy
// and the declined-settling fixes. The traces model the engine's access
// pattern exactly: every superstep sweeps the working set once in a fixed
// order, with AdvanceEpoch marking each boundary.

import (
	"math"
	"testing"

	"repro/internal/compress"
	"repro/internal/costmodel"
	"repro/internal/csr"
)

// uniformTiles builds n structurally identical tiles (equal SizeBytes) with
// distinct ids and target ranges, so capacities can be expressed exactly as
// "k tiles".
func uniformTiles(t *testing.T, n int) []*csr.Tile {
	t.Helper()
	tiles := make([]*csr.Tile, n)
	nv := uint32(n + 16)
	for i := range tiles {
		lo := uint32(i)
		tl := &csr.Tile{
			ID:          uint32(i),
			TargetLo:    lo,
			TargetHi:    lo + 1,
			NumVertices: nv,
			Row:         []uint32{0, 8},
			Col:         make([]uint32, 8),
		}
		for j := range tl.Col {
			tl.Col[j] = uint32((i + j + 1) % int(nv))
		}
		if err := tl.Validate(); err != nil {
			t.Fatal(err)
		}
		tiles[i] = tl
	}
	return tiles
}

// sweep performs one superstep's worth of accesses — every id once, in
// order, loading on miss — then advances the epoch.
func sweep(t *testing.T, c *Cache, tiles []*csr.Tile, ids []int) {
	t.Helper()
	for _, id := range ids {
		if _, ok := c.Get(id); !ok {
			if err := c.Put(id, tiles[id]); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.AdvanceEpoch()
}

// TestClockRetainsUnderCyclicSweep is the Figure 7(b) trace in miniature: on
// a cyclic sweep over capacity+1 tiles CLOCK pins a stable resident set and
// retains exactly the cached fraction the cyclic model predicts.
func TestClockRetainsUnderCyclicSweep(t *testing.T) {
	const cap = 4 // tiles that fit
	tiles := uniformTiles(t, cap+1)
	capacity := tiles[0].SizeBytes() * cap
	ids := []int{0, 1, 2, 3, 4}

	clock, err := NewClock(capacity, compress.None)
	if err != nil {
		t.Fatal(err)
	}

	// One warm-up sweep fills the cache, then measure ten steady sweeps.
	sweep(t, clock, tiles, ids)
	clock.ResetStats()
	for s := 0; s < 10; s++ {
		sweep(t, clock, tiles, ids)
	}

	cs := clock.Stats()
	// The first cap tiles stay resident (all touched every sweep → all
	// protected → tile cap+1 is declined, not admitted by eviction), so the
	// hit ratio is the cached fraction cap/(cap+1).
	want := costmodel.CyclicHitRatio(tiles[0].SizeBytes()*int64(len(tiles)), capacity)
	if math.Abs(cs.HitRatio()-want) > 1e-9 {
		t.Fatalf("clock hit ratio %.3f under cyclic sweep, want the cyclic model's %.3f", cs.HitRatio(), want)
	}
	if cs.Evictions != 0 {
		t.Fatalf("clock evicted %d entries from a stable cyclic working set", cs.Evictions)
	}
}

// TestClockReadmitsAfterShift pins the adaptation AdmitNoEvict lacks: when
// the working set shifts, entries of the old set age out after k untouched
// epochs and the new set takes their place.
func TestClockReadmitsAfterShift(t *testing.T) {
	const cap = 4
	tiles := uniformTiles(t, 2*cap)
	capacity := tiles[0].SizeBytes() * cap
	setA := []int{0, 1, 2, 3}
	setB := []int{4, 5, 6, 7}

	clock, err := NewClock(capacity, compress.None)
	if err != nil {
		t.Fatal(err)
	}
	noEvict, err := New(capacity, compress.None)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		sweep(t, clock, tiles, setA)
		sweep(t, noEvict, tiles, setA)
	}
	// Shift: only set B is accessed from here on. With k=2 chances, set A
	// survives the first post-shift sweep (age 1: grace for tiles a sweep
	// might simply not have reached yet) and is evicted during the second.
	for s := 0; s < 3; s++ {
		sweep(t, clock, tiles, setB)
		sweep(t, noEvict, tiles, setB)
	}

	evictions := clock.Stats().Evictions
	clock.ResetStats()
	noEvict.ResetStats()
	for _, id := range setB {
		if _, ok := clock.Get(id); !ok {
			t.Fatalf("clock did not re-admit tile %d after the working set shifted", id)
		}
		if _, ok := noEvict.Get(id); ok {
			t.Fatalf("admit-no-evict unexpectedly cached shifted tile %d", id)
		}
	}
	for _, id := range setA {
		if _, ok := clock.Get(id); ok {
			t.Fatalf("clock still caches stale tile %d after %d untouched epochs", id, 3)
		}
	}
	if evictions != int64(cap) {
		t.Fatalf("clock evicted %d stale entries, want %d", evictions, cap)
	}
}

// TestClockDeclineSettlesPerEpoch verifies the per-epoch settling: a failed
// victim scan declines for the rest of the epoch (no rescans, no wasted
// compression), but the next epoch reconsiders.
func TestClockDeclineSettlesPerEpoch(t *testing.T) {
	tiles := uniformTiles(t, 3)
	capacity := tiles[0].SizeBytes() // exactly one tile
	c, err := NewClock(capacity, compress.None)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(0, tiles[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(1, tiles[1]); err != nil { // no victims: declines
		t.Fatal(err)
	}
	if c.declinedEpoch != c.epoch {
		t.Fatal("failed victim scan did not settle the epoch")
	}
	// Epoch 1: entry 0 has age 1 < 2 chances → still protected.
	c.AdvanceEpoch()
	if err := c.Put(1, tiles[1]); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("tile admitted while the resident entry still had a chance")
	}
	// Epoch 2: entry 0 untouched for 2 epochs → victim; tile 1 admitted.
	c.AdvanceEpoch()
	if err := c.Put(1, tiles[1]); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(1); !ok {
		t.Fatal("tile not admitted after the resident entry aged out")
	}
	if _, ok := c.Get(0); ok {
		t.Fatal("aged-out entry still cached")
	}
}

// TestClockDeclineIsSizeAware pins that settling is per size class: a
// failed victim scan for a large tile must not block a smaller tile whose
// (smaller) need the available victims do cover, in the same epoch.
func TestClockDeclineIsSizeAware(t *testing.T) {
	tiles := uniformTiles(t, 3) // 40 bytes each
	smallTile := func(id uint32) *csr.Tile {
		tl := &csr.Tile{
			ID: id, TargetLo: id, TargetHi: id + 1, NumVertices: tiles[0].NumVertices,
			Row: []uint32{0, 2}, Col: []uint32{1, 2}, // 16 bytes
		}
		if err := tl.Validate(); err != nil {
			t.Fatal(err)
		}
		return tl
	}
	smallA, smallB := smallTile(9), smallTile(10)
	// Capacity holds one large + one small tile exactly.
	capacity := tiles[0].SizeBytes() + smallA.SizeBytes()
	c, err := NewClock(capacity, compress.None)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(9, smallA); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(0, tiles[0]); err != nil {
		t.Fatal(err)
	}
	// Age smallA into a victim while keeping the large tile protected.
	for e := 0; e < 2; e++ {
		c.AdvanceEpoch()
		if _, ok := c.Get(0); !ok {
			t.Fatal("resident large tile lost")
		}
	}
	// A second large tile needs 40 bytes but only 16 victim bytes exist →
	// declines, settling the epoch for 40-byte tiles.
	if err := c.Put(1, tiles[1]); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("test setup: large tile was admitted, want declined")
	}
	if c.declinedEpoch != c.epoch {
		t.Fatal("test setup: large tile's decline did not settle")
	}
	// A small tile needs only 16 bytes, which the aged smallA covers: it
	// must get its own victim scan despite the settled larger decline.
	if err := c.Put(10, smallB); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(10); !ok {
		t.Fatal("small tile blocked by a larger tile's settled decline")
	}
	if _, ok := c.Get(9); ok {
		t.Fatal("aged small victim not evicted for the admission")
	}
}

// TestAdmitNoEvictUnsettlesOnRemove pins the declined-settling fix: freeing
// capacity clears the settled state so later insertions are reconsidered
// instead of being turned away by stale full-cache state.
func TestAdmitNoEvictUnsettlesOnRemove(t *testing.T) {
	tiles := uniformTiles(t, 3)
	capacity := tiles[0].SizeBytes() * 2
	c, err := New(capacity, compress.None)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(0, tiles[0])
	c.Put(1, tiles[1])
	c.Put(2, tiles[2]) // full → declined
	if !c.declined {
		t.Fatal("full admit-no-evict cache did not settle")
	}
	if !c.Remove(1) {
		t.Fatal("Remove missed a cached entry")
	}
	if c.declined {
		t.Fatal("Remove did not un-settle the declined state")
	}
	if err := c.Put(2, tiles[2]); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(2); !ok {
		t.Fatal("tile not re-admitted after capacity was freed")
	}
	if c.Remove(1) {
		t.Fatal("Remove reported success for an absent entry")
	}
}

// TestClockGetOrLoadIntoOwnsAdmittedCopies drives the engine's actual miss
// path (GetOrLoadInto with a reused scratch tile) under Clock in mode None:
// admitted tiles must be deep copies, never aliases of caller scratch.
func TestClockGetOrLoadIntoOwnsAdmittedCopies(t *testing.T) {
	const cap = 3
	tiles := uniformTiles(t, cap+1)
	capacity := tiles[0].SizeBytes() * cap
	c, err := NewClock(capacity, compress.None)
	if err != nil {
		t.Fatal(err)
	}
	var scratch csr.Tile
	for s := 0; s < 3; s++ {
		for id := 0; id <= cap; id++ {
			got, err := c.GetOrLoadInto(id, &scratch, loadFrom(tiles[id]))
			if err != nil {
				t.Fatal(err)
			}
			if got.NumEdges() != tiles[id].NumEdges() {
				t.Fatalf("sweep %d tile %d: wrong tile returned", s, id)
			}
		}
		c.AdvanceEpoch()
	}
	// Scribble the scratch tile, then verify every cached tile still holds
	// its own data.
	for i := range scratch.Col {
		scratch.Col[i] = ^uint32(0) >> 1
	}
	cached := 0
	for id := 0; id <= cap; id++ {
		tl, ok := c.Get(id)
		if !ok {
			continue
		}
		cached++
		for i := range tiles[id].Col {
			if tl.Col[i] != tiles[id].Col[i] {
				t.Fatalf("cached tile %d aliases caller scratch: col[%d] corrupted", id, i)
			}
		}
	}
	if cached != cap {
		t.Fatalf("%d tiles resident, want %d", cached, cap)
	}
}

// TestPolicyNameRoundTrip covers the CLI-facing policy naming.
func TestPolicyNameRoundTrip(t *testing.T) {
	for _, p := range Policies {
		got, err := PolicyByName(p.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != p {
			t.Fatalf("PolicyByName(%q) = %v, want %v", p.String(), got, p)
		}
	}
	if _, err := PolicyByName("fifo"); err == nil {
		t.Fatal("unknown policy name accepted")
	}
	if s := Policy(42).String(); s != "policy(42)" {
		t.Fatalf("out-of-range policy printed %q", s)
	}
}

// TestClockSetChances verifies the k knob: with k=1, an entry untouched in
// the current epoch is victimized immediately at the next boundary.
func TestClockSetChances(t *testing.T) {
	tiles := uniformTiles(t, 2)
	c, err := NewClock(tiles[0].SizeBytes(), compress.None)
	if err != nil {
		t.Fatal(err)
	}
	c.SetChances(0) // clamps to 1
	if c.chances != 1 {
		t.Fatalf("chances = %d after SetChances(0), want 1", c.chances)
	}
	if err := c.Put(0, tiles[0]); err != nil {
		t.Fatal(err)
	}
	c.AdvanceEpoch() // entry 0 untouched this epoch → immediate victim
	if err := c.Put(1, tiles[1]); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(1); !ok {
		t.Fatal("k=1 clock did not evict an entry untouched for one epoch")
	}
}
