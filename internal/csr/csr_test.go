package csr

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// decode parses data into a fresh tile.
func decode(data []byte) (*Tile, error) {
	t := new(Tile)
	if err := DecodeInto(t, data); err != nil {
		return nil, err
	}
	return t, nil
}

// buildTile constructs a small valid tile covering targets [lo,hi) with
// random edges.
func buildTile(rng *rand.Rand, id, lo, hi, nv uint32, weighted bool) *Tile {
	t := &Tile{ID: id, TargetLo: lo, TargetHi: hi, NumVertices: nv}
	nTargets := hi - lo
	t.Row = make([]uint32, nTargets+1)
	var edges []uint32
	var vals []float32
	for i := uint32(0); i < nTargets; i++ {
		deg := rng.Uint32N(5)
		t.Row[i+1] = t.Row[i] + deg
		for j := uint32(0); j < deg; j++ {
			edges = append(edges, rng.Uint32N(nv))
			vals = append(vals, float32(rng.Uint32N(100))/10+0.1)
		}
	}
	t.Col = edges
	if weighted {
		t.Val = vals
	}
	return t
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, weighted := range []bool{false, true} {
		for _, withFilter := range []bool{false, true} {
			tl := buildTile(rng, 3, 10, 50, 100, weighted)
			if withFilter {
				tl.BuildFilter(0.01)
			}
			if err := tl.Validate(); err != nil {
				t.Fatal(err)
			}
			got, err := decode(tl.AppendEncode(nil))
			if err != nil {
				t.Fatalf("weighted=%v filter=%v: %v", weighted, withFilter, err)
			}
			if got.ID != tl.ID || got.TargetLo != tl.TargetLo || got.TargetHi != tl.TargetHi ||
				got.NumVertices != tl.NumVertices {
				t.Fatalf("header mismatch: %+v vs %+v", got, tl)
			}
			if got.NumEdges() != tl.NumEdges() {
				t.Fatalf("edge count %d != %d", got.NumEdges(), tl.NumEdges())
			}
			for i := range tl.Col {
				if got.Col[i] != tl.Col[i] {
					t.Fatalf("col[%d] mismatch", i)
				}
			}
			if weighted {
				for i := range tl.Val {
					if got.Val[i] != tl.Val[i] {
						t.Fatalf("val[%d] mismatch", i)
					}
				}
			} else if got.Val != nil {
				t.Fatal("unweighted tile decoded with values")
			}
			if withFilter {
				if got.Filter == nil {
					t.Fatal("filter lost in round trip")
				}
				for _, s := range tl.Col {
					if !got.Filter.Contains(s) {
						t.Fatalf("decoded filter missing source %d", s)
					}
				}
			} else if got.Filter != nil {
				t.Fatal("phantom filter after decode")
			}
		}
	}
}

func TestInEdges(t *testing.T) {
	tl := &Tile{
		ID: 0, TargetLo: 5, TargetHi: 8, NumVertices: 10,
		Row: []uint32{0, 2, 2, 5},
		Col: []uint32{1, 9, 0, 3, 4},
		Val: []float32{1, 2, 3, 4, 5},
	}
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
	srcs, vals := tl.InEdges(5)
	if len(srcs) != 2 || srcs[0] != 1 || srcs[1] != 9 || vals[1] != 2 {
		t.Fatalf("InEdges(5) = %v, %v", srcs, vals)
	}
	srcs, _ = tl.InEdges(6)
	if len(srcs) != 0 {
		t.Fatalf("InEdges(6) = %v, want empty", srcs)
	}
	srcs, vals = tl.InEdges(7)
	if len(srcs) != 3 || vals[2] != 5 {
		t.Fatalf("InEdges(7) = %v, %v", srcs, vals)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	good := func() *Tile {
		return &Tile{
			ID: 0, TargetLo: 0, TargetHi: 2, NumVertices: 4,
			Row: []uint32{0, 1, 2}, Col: []uint32{3, 1},
		}
	}
	cases := map[string]func(*Tile){
		"inverted range":   func(t *Tile) { t.TargetLo, t.TargetHi = 2, 0 },
		"range overflow":   func(t *Tile) { t.TargetHi = 99 },
		"row length":       func(t *Tile) { t.Row = t.Row[:2] },
		"row start":        func(t *Tile) { t.Row[0] = 1 },
		"row monotone":     func(t *Tile) { t.Row[1] = 5 },
		"row end":          func(t *Tile) { t.Row[2] = 1 },
		"col out of range": func(t *Tile) { t.Col[0] = 100 },
		"val length":       func(t *Tile) { t.Val = []float32{1} },
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("baseline tile invalid: %v", err)
	}
	for name, corrupt := range cases {
		tl := good()
		corrupt(tl)
		if err := tl.Validate(); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
}

func TestDecodeRejectsBitrot(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	tl := buildTile(rng, 1, 0, 20, 40, true)
	tl.BuildFilter(0.01)
	enc := tl.AppendEncode(nil)
	if _, err := decode(enc[:10]); err == nil {
		t.Fatal("truncated tile accepted")
	}
	// Flip one byte anywhere: the CRC must catch it.
	for _, pos := range []int{0, 5, 16, len(enc) / 2, len(enc) - 5} {
		bad := make([]byte, len(enc))
		copy(bad, enc)
		bad[pos] ^= 0xFF
		if _, err := decode(bad); err == nil {
			t.Errorf("bit flip at %d not detected", pos)
		}
	}
}

func TestSizeBytes(t *testing.T) {
	tl := &Tile{
		TargetLo: 0, TargetHi: 2, NumVertices: 4,
		Row: []uint32{0, 1, 2}, Col: []uint32{3, 1},
	}
	if got := tl.SizeBytes(); got != 3*4+2*4 {
		t.Fatalf("SizeBytes = %d, want 20", got)
	}
	tl.Val = []float32{1, 2}
	if got := tl.SizeBytes(); got != 3*4+2*4+2*4 {
		t.Fatalf("weighted SizeBytes = %d, want 28", got)
	}
}

func TestEmptyTile(t *testing.T) {
	tl := &Tile{ID: 7, TargetLo: 3, TargetHi: 3, NumVertices: 10, Row: []uint32{0}}
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
	got, err := decode(tl.AppendEncode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTargets() != 0 || got.NumEdges() != 0 {
		t.Fatalf("empty tile round trip: %+v", got)
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	prop := func(seed uint64, weighted, filtered bool) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		nv := rng.Uint32N(100) + 2
		lo := rng.Uint32N(nv - 1)
		hi := lo + rng.Uint32N(nv-lo)
		tl := buildTile(rng, rng.Uint32(), lo, hi, nv, weighted)
		if filtered {
			tl.BuildFilter(0.01)
		}
		got, err := decode(tl.AppendEncode(nil))
		if err != nil {
			return false
		}
		if got.NumEdges() != tl.NumEdges() || got.NumTargets() != tl.NumTargets() {
			return false
		}
		for i := range tl.Row {
			if got.Row[i] != tl.Row[i] {
				return false
			}
		}
		for i := range tl.Col {
			if got.Col[i] != tl.Col[i] {
				return false
			}
		}
		return got.Validate() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
