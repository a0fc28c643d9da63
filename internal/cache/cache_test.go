package cache

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/costmodel"
	"repro/internal/csr"
	"repro/internal/graph"
	"repro/internal/tile"
)

// makeTiles builds a deterministic tile set for cache tests.
func makeTiles(t *testing.T, numTiles int) []*csr.Tile {
	t.Helper()
	el := graph.GenerateRMAT(graph.DefaultRMAT(), 2000, 20_000, 77)
	p, err := tile.Split(el, tile.Options{TileSize: el.NumEdges()/numTiles + 1})
	if err != nil {
		t.Fatal(err)
	}
	return p.Tiles
}

func TestHitAndMiss(t *testing.T) {
	tiles := makeTiles(t, 4)
	c, err := New(1<<30, compress.None)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(0); ok {
		t.Fatal("hit on empty cache")
	}
	if err := c.Put(0, tiles[0]); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(0)
	if !ok {
		t.Fatal("miss after put")
	}
	if got.NumEdges() != tiles[0].NumEdges() {
		t.Fatal("cache returned wrong tile")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.HitRatio() != 0.5 {
		t.Fatalf("hit ratio %g, want 0.5", s.HitRatio())
	}
}

func TestCompressedModesRoundTrip(t *testing.T) {
	tiles := makeTiles(t, 3)
	for _, mode := range compress.Modes {
		c, err := New(1<<30, mode)
		if err != nil {
			t.Fatal(err)
		}
		for i, tl := range tiles {
			if err := c.Put(i, tl); err != nil {
				t.Fatal(err)
			}
		}
		for i, want := range tiles {
			got, ok := c.Get(i)
			if !ok {
				t.Fatalf("%s: miss on tile %d", mode, i)
			}
			if got.NumEdges() != want.NumEdges() || got.TargetLo != want.TargetLo {
				t.Fatalf("%s: tile %d corrupted", mode, i)
			}
			for j := range want.Col {
				if got.Col[j] != want.Col[j] {
					t.Fatalf("%s: tile %d col[%d] mismatch", mode, i, j)
				}
			}
		}
		if mode != compress.None {
			if c.Stats().DecompressTime <= 0 {
				t.Errorf("%s: decompression time not accounted", mode)
			}
		}
	}
}

func TestCompressedModeUsesLessMemory(t *testing.T) {
	tiles := makeTiles(t, 2)
	raw, _ := New(1<<30, compress.None)
	zl, _ := New(1<<30, compress.Zlib3)
	for i, tl := range tiles {
		raw.Put(i, tl)
		zl.Put(i, tl)
	}
	rb, zb := raw.Stats().BytesCached, zl.Stats().BytesCached
	if zb >= rb {
		t.Fatalf("zlib-3 cache (%dB) not smaller than raw (%dB)", zb, rb)
	}
}

func TestOversizeTileNotCached(t *testing.T) {
	tiles := makeTiles(t, 2)
	c, err := New(10, compress.None) // tiny capacity
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(0, tiles[0]); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(0); ok {
		t.Fatal("oversize tile cached")
	}
}

func TestZeroCapacity(t *testing.T) {
	tiles := makeTiles(t, 2)
	c, err := New(0, compress.Snappy)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(0, tiles[0]); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(0); ok {
		t.Fatal("zero-capacity cache stored a tile")
	}
}

func TestPutReplaces(t *testing.T) {
	tiles := makeTiles(t, 3)
	c, _ := New(1<<30, compress.None)
	c.Put(0, tiles[0])
	c.Put(0, tiles[1]) // same id, different tile
	got, ok := c.Get(0)
	if !ok || got.TargetLo != tiles[1].TargetLo {
		t.Fatal("replacement did not take effect")
	}
	if s := c.Stats(); s.Entries != 1 {
		t.Fatalf("duplicate entries after replace: %+v", s)
	}
}

func TestGetOrLoad(t *testing.T) {
	tiles := makeTiles(t, 2)
	c, _ := New(1<<30, compress.Snappy)
	loads := 0
	loader := func() (*csr.Tile, error) {
		loads++
		return tiles[0], nil
	}
	for i := 0; i < 3; i++ {
		got, err := c.GetOrLoad(0, loader)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumEdges() != tiles[0].NumEdges() {
			t.Fatal("wrong tile from GetOrLoad")
		}
	}
	if loads != 1 {
		t.Fatalf("loader called %d times, want 1", loads)
	}
	// Loader errors propagate.
	_, err := c.GetOrLoad(9, func() (*csr.Tile, error) {
		return nil, fmt.Errorf("disk exploded")
	})
	if err == nil {
		t.Fatal("loader error swallowed")
	}
}

func TestNewAutoSelectsByCapacity(t *testing.T) {
	// Plenty of room: raw. Tight: compressed.
	big, err := NewAuto(1000, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if big.Mode() != compress.None {
		t.Fatalf("ample capacity chose %s", big.Mode())
	}
	tight, err := NewAuto(10_000, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Mode() != compress.Zlib1 {
		t.Fatalf("tight capacity chose %s, want zlib-1", tight.Mode())
	}
}

func TestInvalidMode(t *testing.T) {
	if _, err := New(100, compress.Mode(42)); err == nil {
		t.Fatal("invalid mode accepted")
	}
	if _, err := NewWithPolicy(100, compress.None, Policy(7)); err == nil {
		t.Fatal("invalid policy accepted")
	}
}

func TestAdmitNoEvictKeepsStableSet(t *testing.T) {
	// The paper's policy: under cyclic access, the first tiles to fit stay
	// cached and the steady hit ratio is the cached fraction of the working
	// set, never the zero that recency eviction would thrash to.
	tiles := uniformTiles(t, 4)
	size := tiles[0].SizeBytes()
	paper, err := New(2*size, compress.None)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{0, 1, 2, 3}
	sweep(t, paper, tiles, ids) // warm-up: every tile misses once
	paper.ResetStats()
	for round := 0; round < 9; round++ {
		sweep(t, paper, tiles, ids)
	}
	ps := paper.Stats()
	if ps.Evictions != 0 {
		t.Fatalf("paper policy evicted %d entries", ps.Evictions)
	}
	if want := costmodel.CyclicHitRatio(4*size, 2*size); math.Abs(ps.HitRatio()-want) > 1e-9 {
		t.Fatalf("paper policy hit ratio %.3f, want the cyclic model's %.3f", ps.HitRatio(), want)
	}
}

func TestConcurrentAccess(t *testing.T) {
	tiles := makeTiles(t, 8)
	c, _ := New(tiles[0].SizeBytes()*4, compress.Snappy)
	var wg sync.WaitGroup
	rng := rand.New(rand.NewPCG(1, 2))
	ids := make([]int, 64)
	for i := range ids {
		ids[i] = int(rng.Uint32N(8))
	}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, id := range ids {
				if _, ok := c.Get(id); !ok {
					c.Put(id, tiles[id])
				}
			}
		}(w)
	}
	wg.Wait()
	s := c.Stats()
	if s.Hits+s.Misses == 0 {
		t.Fatal("no accesses recorded")
	}
}

func TestResetStats(t *testing.T) {
	tiles := makeTiles(t, 2)
	c, _ := New(1<<30, compress.None)
	c.Put(0, tiles[0])
	c.Get(0)
	c.Get(5)
	c.ResetStats()
	s := c.Stats()
	if s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("stats not reset: %+v", s)
	}
	if s.Entries != 1 {
		t.Fatal("reset dropped contents")
	}
}
