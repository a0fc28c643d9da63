package cache

import (
	"testing"

	"repro/internal/compress"
	"repro/internal/csr"
)

// loadFrom adapts a tile to the GetOrLoadInto load contract: decode the
// encoded form into dst when given, else into a fresh tile.
func loadFrom(src *csr.Tile) func(dst *csr.Tile) (*csr.Tile, error) {
	enc := src.AppendEncode(nil)
	return func(dst *csr.Tile) (*csr.Tile, error) {
		if dst == nil {
			dst = new(csr.Tile)
		}
		if err := csr.DecodeInto(dst, enc); err != nil {
			return nil, err
		}
		return dst, nil
	}
}

// TestGetOrLoadIntoMatchesGetOrLoad runs both load paths over the same tile
// sequence in every mode and checks identical hit/miss behaviour and data.
func TestGetOrLoadIntoMatchesGetOrLoad(t *testing.T) {
	tiles := makeTiles(t, 4)
	for _, mode := range compress.Modes {
		a, err := New(1<<30, mode)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(1<<30, mode)
		if err != nil {
			t.Fatal(err)
		}
		var scratch csr.Tile
		for round := 0; round < 2; round++ {
			for id, tl := range tiles {
				ta, err := a.GetOrLoad(id, func() (*csr.Tile, error) { return loadFrom(tl)(nil) })
				if err != nil {
					t.Fatal(err)
				}
				tb, err := b.GetOrLoadInto(id, &scratch, loadFrom(tl))
				if err != nil {
					t.Fatal(err)
				}
				if ta.NumEdges() != tb.NumEdges() || ta.TargetLo != tb.TargetLo {
					t.Fatalf("mode %v round %d tile %d: divergent tiles", mode, round, id)
				}
				for i := range ta.Col {
					if ta.Col[i] != tb.Col[i] {
						t.Fatalf("mode %v round %d tile %d: col[%d] differs", mode, round, id, i)
					}
				}
			}
		}
		sa, sb := a.Stats(), b.Stats()
		if sa.Hits != sb.Hits || sa.Misses != sb.Misses {
			t.Fatalf("mode %v: stats diverge: %+v vs %+v", mode, sa, sb)
		}
	}
}

// TestGetOrLoadIntoAdmitsAfterDecline pins the paper's per-insertion
// admission: after a large tile is declined, a smaller tile that still fits
// must be admitted (as an owned copy), not silently skipped.
func TestGetOrLoadIntoAdmitsAfterDecline(t *testing.T) {
	tiles := makeTiles(t, 8)
	big, small := tiles[0], tiles[1]
	// Shrink "small" so it fits where "big" does not.
	small = &csr.Tile{
		ID: small.ID, TargetLo: small.TargetLo, TargetHi: small.TargetLo + 1,
		NumVertices: small.NumVertices,
		Row:         []uint32{0, 2},
		Col:         []uint32{1, 2},
	}
	if err := small.Validate(); err != nil {
		t.Fatal(err)
	}
	capacity := big.SizeBytes() + small.SizeBytes() // big+small fit, big+big does not
	c, err := New(capacity, compress.None)
	if err != nil {
		t.Fatal(err)
	}
	var scratch csr.Tile
	if _, err := c.GetOrLoadInto(0, &scratch, loadFrom(big)); err != nil {
		t.Fatal(err)
	}
	// A second large tile is declined, setting the cache's declined state.
	if _, err := c.GetOrLoadInto(1, &scratch, loadFrom(tiles[2])); err != nil {
		t.Fatal(err)
	}
	if !c.declined {
		t.Fatal("test setup: second large tile was not declined")
	}
	// The small tile fits and must be admitted despite the earlier decline.
	got, err := c.GetOrLoadInto(2, &scratch, loadFrom(small))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != small.NumEdges() {
		t.Fatalf("loaded tile has %d edges, want %d", got.NumEdges(), small.NumEdges())
	}
	if _, ok := c.Get(2); !ok {
		t.Fatal("small tile was not admitted after an earlier decline")
	}
	// The admitted copy must own its memory: scribble over the scratch tile
	// and re-read.
	for i := range scratch.Col {
		scratch.Col[i] = 0
	}
	cached, ok := c.Get(2)
	if !ok {
		t.Fatal("admitted tile vanished")
	}
	for i := range small.Col {
		if cached.Col[i] != small.Col[i] {
			t.Fatal("cached tile aliases caller scratch: corrupted after scratch reuse")
		}
	}
}

// TestGetIntoCorruptEntryRecovers drops a corrupted compressed entry and
// reports a miss, mirroring the Get behaviour.
func TestGetIntoCorruptEntryRecovers(t *testing.T) {
	tiles := makeTiles(t, 2)
	c, err := New(1<<30, compress.Snappy)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(0, tiles[0]); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	e := c.entries[0]
	for i := range e.blob {
		e.blob[i] ^= 0xA5
	}
	c.mu.Unlock()
	var scratch csr.Tile
	if _, ok := c.GetInto(0, &scratch); ok {
		t.Fatal("corrupt entry returned as a hit")
	}
	if got := c.Stats().Entries; got != 0 {
		t.Fatalf("corrupt entry not dropped: %d entries", got)
	}
}
