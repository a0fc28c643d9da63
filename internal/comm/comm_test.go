package comm

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/compress"
)

func makeBatch(lo, hi uint32, ids []uint32, rng *rand.Rand) *Batch {
	b := &Batch{TileID: 7, Lo: lo, Hi: hi}
	for _, id := range ids {
		b.Updates = append(b.Updates, Update{ID: id, Value: rng.Float64()*100 - 50})
	}
	return b
}

// decode parses msg into a fresh Batch.
func decode(msg []byte) (*Batch, Encoding, error) {
	b := new(Batch)
	enc, err := DecodeInto(b, msg)
	return b, enc, err
}

func sameBatch(t *testing.T, a, b *Batch) {
	t.Helper()
	if a.TileID != b.TileID || a.Lo != b.Lo || a.Hi != b.Hi {
		t.Fatalf("batch header mismatch: %+v vs %+v", a, b)
	}
	if len(a.Updates) != len(b.Updates) {
		t.Fatalf("update count %d vs %d", len(a.Updates), len(b.Updates))
	}
	for i := range a.Updates {
		if a.Updates[i] != b.Updates[i] {
			t.Fatalf("update %d: %+v vs %+v", i, a.Updates[i], b.Updates[i])
		}
	}
}

func TestRoundTripDenseAndSparse(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	b := makeBatch(100, 200, []uint32{100, 101, 150, 199}, rng)
	for _, choice := range []ModeChoice{ForceDense, ForceSparse, Auto} {
		for _, codec := range compress.Modes {
			msg, enc, err := AppendEncode(nil, b, Options{Choice: choice, Codec: codec})
			if err != nil {
				t.Fatalf("choice=%v codec=%v: %v", choice, codec, err)
			}
			got, gotEnc, err := decode(msg)
			if err != nil {
				t.Fatalf("choice=%v codec=%v decode: %v", choice, codec, err)
			}
			sameBatch(t, b, got)
			if gotEnc.Mode != enc.Mode || gotEnc.Codec != enc.Codec {
				t.Fatalf("encoding metadata mismatch: %+v vs %+v", gotEnc, enc)
			}
		}
	}
}

func TestHybridSwitchesAtThreshold(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	// Range of 100 vertices. 30 updates → sparsity 0.7 → dense.
	ids := make([]uint32, 0, 30)
	for i := uint32(0); i < 30; i++ {
		ids = append(ids, i*3)
	}
	dense := makeBatch(0, 100, ids, rng)
	_, enc, err := AppendEncode(nil, dense, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if enc.Mode != DenseMode {
		t.Fatalf("sparsity 0.7 encoded as %v, want dense", enc.Mode)
	}
	// 10 updates → sparsity 0.9 → sparse.
	sparse := makeBatch(0, 100, ids[:10], rng)
	_, enc, err = AppendEncode(nil, sparse, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if enc.Mode != SparseMode {
		t.Fatalf("sparsity 0.9 encoded as %v, want sparse", enc.Mode)
	}
	// Custom threshold 0.5: 30 updates (sparsity 0.7) now goes sparse.
	_, enc, err = AppendEncode(nil, dense, Options{SparsityThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if enc.Mode != SparseMode {
		t.Fatalf("custom threshold ignored: %v", enc.Mode)
	}
}

func TestSparsityRatio(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	b := makeBatch(0, 10, []uint32{1, 5}, rng)
	if got := b.SparsityRatio(); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("SparsityRatio = %g, want 0.8", got)
	}
	empty := &Batch{Lo: 5, Hi: 5}
	if empty.SparsityRatio() != 1 {
		t.Fatal("empty range should be fully sparse")
	}
}

func TestWireSizes(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	n := uint32(1000)
	few := makeBatch(0, n, []uint32{3, 500, 900}, rng)

	denseMsg, _, err := AppendEncode(nil, few, Options{Choice: ForceDense})
	if err != nil {
		t.Fatal(err)
	}
	sparseMsg, _, err := AppendEncode(nil, few, Options{Choice: ForceSparse})
	if err != nil {
		t.Fatal(err)
	}
	// Dense: bitvector (125B) + 8000B values. Sparse: 3×12B. The paper's
	// motivation: sparse wins by orders of magnitude on rare updates.
	if len(sparseMsg) >= len(denseMsg)/10 {
		t.Fatalf("sparse %dB not much smaller than dense %dB", len(sparseMsg), len(denseMsg))
	}

	// With every vertex updated, dense must win (no 4-byte indices).
	all := &Batch{TileID: 1, Lo: 0, Hi: n}
	for i := uint32(0); i < n; i++ {
		all.Updates = append(all.Updates, Update{ID: i, Value: 1.5})
	}
	denseAll, _, err := AppendEncode(nil, all, Options{Choice: ForceDense})
	if err != nil {
		t.Fatal(err)
	}
	sparseAll, _, err := AppendEncode(nil, all, Options{Choice: ForceSparse})
	if err != nil {
		t.Fatal(err)
	}
	if len(denseAll) >= len(sparseAll) {
		t.Fatalf("dense %dB not smaller than sparse %dB at 100%% updates", len(denseAll), len(sparseAll))
	}
}

func TestCompressionReducesTraffic(t *testing.T) {
	// Identical values compress extremely well, as PageRank updates do in
	// early supersteps (Figure 8c).
	b := &Batch{TileID: 0, Lo: 0, Hi: 5000}
	for i := uint32(0); i < 5000; i++ {
		b.Updates = append(b.Updates, Update{ID: i, Value: 0.15})
	}
	raw, _, err := AppendEncode(nil, b, Options{Choice: ForceDense, Codec: compress.None})
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := AppendEncode(nil, b, Options{Choice: ForceDense, Codec: compress.Snappy})
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) >= len(raw)/2 {
		t.Fatalf("snappy message %dB vs raw %dB: expected ≥2x reduction", len(snap), len(raw))
	}
}

func TestValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	outOfRange := makeBatch(10, 20, []uint32{5}, rng)
	if _, _, err := AppendEncode(nil, outOfRange, Options{}); err == nil {
		t.Fatal("out-of-range update accepted")
	}
	unsorted := &Batch{Lo: 0, Hi: 10, Updates: []Update{{ID: 5}, {ID: 3}}}
	if _, _, err := AppendEncode(nil, unsorted, Options{}); err == nil {
		t.Fatal("unsorted updates accepted")
	}
	dup := &Batch{Lo: 0, Hi: 10, Updates: []Update{{ID: 5}, {ID: 5}}}
	if _, _, err := AppendEncode(nil, dup, Options{}); err == nil {
		t.Fatal("duplicate updates accepted")
	}
	inverted := &Batch{Lo: 10, Hi: 5}
	if _, _, err := AppendEncode(nil, inverted, Options{}); err == nil {
		t.Fatal("inverted range accepted")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	b := makeBatch(0, 50, []uint32{1, 2, 3}, rng)
	msg, _, err := AppendEncode(nil, b, Options{Codec: compress.Snappy})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"short":     msg[:10],
		"badmagic":  append([]byte{0x00}, msg[1:]...),
		"truncated": msg[:len(msg)-3],
	}
	for name, m := range cases {
		if _, _, err := decode(m); err == nil {
			t.Errorf("%s: corrupt message accepted", name)
		}
	}
	// Flip the mode nibble to an invalid value.
	bad := append([]byte(nil), msg...)
	bad[1] = (bad[1] & 0xF0) | 0x0F
	if _, _, err := decode(bad); err == nil {
		t.Error("invalid mode accepted")
	}
	// Corrupt the compressed body.
	bad2 := append([]byte(nil), msg...)
	bad2[len(bad2)-1] ^= 0xFF
	if _, _, err := decode(bad2); err == nil {
		t.Error("corrupt body accepted")
	}
}

func TestEmptyBatch(t *testing.T) {
	b := &Batch{TileID: 3, Lo: 10, Hi: 40}
	for _, choice := range []ModeChoice{ForceDense, ForceSparse, Auto} {
		msg, _, err := AppendEncode(nil, b, Options{Choice: choice})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := decode(msg)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Updates) != 0 || got.Lo != 10 || got.Hi != 40 {
			t.Fatalf("empty batch round trip: %+v", got)
		}
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	prop := func(seed uint64, rangeSize uint16, density uint8, choiceRaw, codecRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 9))
		lo := rng.Uint32N(1000)
		n := uint32(rangeSize)%500 + 1
		hi := lo + n
		var ids []uint32
		for v := lo; v < hi; v++ {
			if rng.Uint32N(256) < uint32(density) {
				ids = append(ids, v)
			}
		}
		b := makeBatch(lo, hi, ids, rng)
		choice := []ModeChoice{Auto, ForceDense, ForceSparse}[int(choiceRaw)%3]
		codec := compress.Modes[int(codecRaw)%len(compress.Modes)]
		msg, _, err := AppendEncode(nil, b, Options{Choice: choice, Codec: codec})
		if err != nil {
			return false
		}
		got, _, err := decode(msg)
		if err != nil {
			return false
		}
		if got.Lo != b.Lo || got.Hi != b.Hi || len(got.Updates) != len(b.Updates) {
			return false
		}
		for i := range b.Updates {
			if got.Updates[i] != b.Updates[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
