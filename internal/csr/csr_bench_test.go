package csr

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/bloom"
)

// buildBigTile constructs a tile with the given edge count for codec
// benchmarks (~8 edges per target, uniform random sources).
func buildBigTile(nEdges int, weighted bool) *Tile {
	rng := rand.New(rand.NewPCG(42, 42))
	nTargets := uint32(nEdges / 8)
	if nTargets < 1 {
		nTargets = 1
	}
	nv := nTargets * 4
	t := &Tile{ID: 1, TargetLo: 0, TargetHi: nTargets, NumVertices: nv}
	t.Row = make([]uint32, nTargets+1)
	perTarget := uint32(nEdges) / nTargets
	for i := uint32(0); i < nTargets; i++ {
		t.Row[i+1] = t.Row[i] + perTarget
	}
	n := int(t.Row[nTargets])
	t.Col = make([]uint32, n)
	for i := range t.Col {
		t.Col[i] = rng.Uint32N(nv)
	}
	if weighted {
		t.Val = make([]float32, n)
		for i := range t.Val {
			t.Val[i] = rng.Float32()
		}
	}
	return t
}

// decodePerWord is the pre-optimization reference decoder: one
// binary.LittleEndian call per array element. It is kept verbatim so
// BenchmarkTileDecode vs BenchmarkTileDecodePerWordReference measures the
// bulk-conversion speedup on every run.
func decodePerWord(data []byte) (*Tile, error) {
	if len(data) < 36 {
		return nil, fmt.Errorf("csr: encoded tile too short (%d bytes)", len(data))
	}
	body, crcBytes := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(crcBytes); got != want {
		return nil, fmt.Errorf("csr: tile checksum mismatch (got %#x want %#x)", got, want)
	}
	if m := binary.LittleEndian.Uint32(body[0:]); m != tileMagic {
		return nil, fmt.Errorf("csr: bad tile magic %#x", m)
	}
	t := &Tile{
		ID:          binary.LittleEndian.Uint32(body[4:]),
		TargetLo:    binary.LittleEndian.Uint32(body[8:]),
		TargetHi:    binary.LittleEndian.Uint32(body[12:]),
		NumVertices: binary.LittleEndian.Uint32(body[16:]),
	}
	numEdges := binary.LittleEndian.Uint32(body[20:])
	flags := binary.LittleEndian.Uint32(body[24:])
	filterLen := binary.LittleEndian.Uint32(body[28:])
	if t.TargetHi < t.TargetLo {
		return nil, fmt.Errorf("csr: inverted target range [%d,%d)", t.TargetLo, t.TargetHi)
	}
	numRow := uint64(t.TargetHi-t.TargetLo) + 1
	want := uint64(32) + uint64(filterLen) + numRow*4 + uint64(numEdges)*4
	if flags&flagWeighted != 0 {
		want += uint64(numEdges) * 4
	}
	if uint64(len(body)) != want {
		return nil, fmt.Errorf("csr: tile body %d bytes, want %d", len(body), want)
	}
	off := 32
	if flags&flagFilter != 0 {
		f, err := bloom.Decode(body[off : off+int(filterLen)])
		if err != nil {
			return nil, fmt.Errorf("csr: tile filter: %w", err)
		}
		t.Filter = f
	}
	off += int(filterLen)
	t.Row = make([]uint32, numRow)
	for i := range t.Row {
		t.Row[i] = binary.LittleEndian.Uint32(body[off:])
		off += 4
	}
	t.Col = make([]uint32, numEdges)
	for i := range t.Col {
		t.Col[i] = binary.LittleEndian.Uint32(body[off:])
		off += 4
	}
	if flags&flagWeighted != 0 {
		t.Val = make([]float32, numEdges)
		for i := range t.Val {
			t.Val[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[off:]))
			off += 4
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// TestDecodePerWordReferenceAgrees pins the reference decoder to the real
// one, so the benchmark comparison stays honest.
func TestDecodePerWordReferenceAgrees(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	tl := buildTile(rng, 2, 4, 60, 90, true)
	tl.BuildFilter(0.01)
	enc := tl.AppendEncode(nil)
	a, err := decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := decodePerWord(enc)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != b.ID || a.NumEdges() != b.NumEdges() || a.NumTargets() != b.NumTargets() {
		t.Fatalf("decoders disagree: %+v vs %+v", a, b)
	}
	for i := range a.Col {
		if a.Col[i] != b.Col[i] || a.Val[i] != b.Val[i] {
			t.Fatalf("decoders disagree at edge %d", i)
		}
	}
}

const benchEdges = 1 << 20 // ≥1M edges per the acceptance criterion

func BenchmarkTileDecode(b *testing.B) {
	tl := buildBigTile(benchEdges, true)
	enc := tl.AppendEncode(nil)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTileDecodeInto(b *testing.B) {
	tl := buildBigTile(benchEdges, true)
	enc := tl.AppendEncode(nil)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	var dst Tile
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeInto(&dst, enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTileDecodePerWordReference(b *testing.B) {
	tl := buildBigTile(benchEdges, true)
	enc := tl.AppendEncode(nil)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodePerWord(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTileEncode(b *testing.B) {
	tl := buildBigTile(benchEdges, true)
	b.SetBytes(int64(tl.EncodedSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tl.AppendEncode(nil)
	}
}

func BenchmarkTileAppendEncode(b *testing.B) {
	tl := buildBigTile(benchEdges, true)
	b.SetBytes(int64(tl.EncodedSize()))
	b.ReportAllocs()
	buf := make([]byte, 0, tl.EncodedSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tl.AppendEncode(buf[:0])
	}
}

func BenchmarkBuildFilter(b *testing.B) {
	tl := buildBigTile(benchEdges, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.BuildFilter(0.01)
	}
}
