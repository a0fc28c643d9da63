package comm

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"repro/internal/compress"
)

// decodeDenseBitByBitReference is the pre-change dense-body scan, kept
// verbatim so the word-at-a-time TrailingZeros64 replacement in DecodeInto
// stays comparable on any machine (see PERF.md).
func decodeDenseBitByBitReference(b *Batch, body []byte, n, bvLen int) {
	b.Updates = b.Updates[:0]
	for local := 0; local < n; local++ {
		if body[local/8]&(1<<(local%8)) == 0 {
			continue
		}
		bits := binary.LittleEndian.Uint64(body[bvLen+8*local:])
		b.Updates = append(b.Updates, Update{
			ID:    b.Lo + uint32(local),
			Value: math.Float64frombits(bits),
		})
	}
}

// denseBody encodes a batch and returns the raw (uncompressed) dense body.
func denseBody(tb testing.TB, batch *Batch) (body []byte, n, bvLen int) {
	tb.Helper()
	msg, _, err := AppendEncode(nil, batch, Options{Choice: ForceDense, Codec: compress.None})
	if err != nil {
		tb.Fatal(err)
	}
	n = int(batch.Hi - batch.Lo)
	return msg[headerSize:], n, (n + 7) / 8
}

// TestDenseScanMatchesReference cross-checks the word-at-a-time scan
// against the bit-by-bit reference across fill levels and awkward range
// sizes (partial tail words, single-bit bodies, empty bodies).
func TestDenseScanMatchesReference(t *testing.T) {
	for _, size := range []int{1, 7, 63, 64, 65, 100, 1<<12 + 3} {
		for _, stride := range []int{1, 2, 7, 64, size} {
			batch := &Batch{TileID: 3, Lo: 10, Hi: 10 + uint32(size)}
			for i := 0; i < size; i += stride {
				batch.Updates = append(batch.Updates, Update{ID: 10 + uint32(i), Value: float64(i) + 0.5})
			}
			msg, _, err := AppendEncode(nil, batch, Options{Choice: ForceDense, Codec: compress.None})
			if err != nil {
				t.Fatal(err)
			}
			var got Batch
			if _, err := DecodeInto(&got, msg); err != nil {
				t.Fatalf("size=%d stride=%d: %v", size, stride, err)
			}
			body, n, bvLen := denseBody(t, batch)
			want := Batch{Lo: batch.Lo}
			decodeDenseBitByBitReference(&want, body, n, bvLen)
			if len(got.Updates) != len(want.Updates) {
				t.Fatalf("size=%d stride=%d: %d updates, reference %d", size, stride, len(got.Updates), len(want.Updates))
			}
			for i := range want.Updates {
				if got.Updates[i] != want.Updates[i] {
					t.Fatalf("size=%d stride=%d: update %d = %+v, reference %+v",
						size, stride, i, got.Updates[i], want.Updates[i])
				}
			}
		}
	}
}

// TestDenseScanMasksStrayTailBits feeds a hand-corrupted dense body whose
// bitvector sets a bit at/after Hi-Lo. The bit-by-bit decoder ignored such
// bits by loop bound; the word scan must mask them the same way instead of
// indexing the value array out of bounds or inventing phantom updates.
func TestDenseScanMasksStrayTailBits(t *testing.T) {
	batch := buildBatch(100, 10)
	msg, _, err := AppendEncode(nil, batch, Options{Choice: ForceDense, Codec: compress.None})
	if err != nil {
		t.Fatal(err)
	}
	// Set bit 101 of the 100-bit vector (byte 12, bit 5) and re-stamp the CRC.
	msg[headerSize+12] |= 1 << 5
	binary.LittleEndian.PutUint32(msg[22:], crc32.ChecksumIEEE(msg[headerSize:]))
	var dst Batch
	if _, err := DecodeInto(&dst, msg); err != nil {
		t.Fatal(err)
	}
	if len(dst.Updates) != len(batch.Updates) {
		t.Fatalf("stray tail bit changed update count: %d, want %d", len(dst.Updates), len(batch.Updates))
	}
	for i, u := range dst.Updates {
		if u != batch.Updates[i] {
			t.Fatalf("update %d = %+v, want %+v", i, u, batch.Updates[i])
		}
	}
}

// FuzzDecodeInto throws arbitrary bytes at the decoder — it must either
// reject them or produce a batch that re-encodes and decodes back to the
// identical header, ids and value bits. The round trip uses the wire mode
// and codec the frame decoded in, so it costs no more than the decode did; a
// dense re-encode costs O(claimed range), so the dense cross-check runs only
// for ranges up to 1<<20 (a sparse frame can claim ~4 G vertices in a few
// dozen bytes).
func FuzzDecodeInto(f *testing.F) {
	for _, choice := range []ModeChoice{ForceDense, ForceSparse} {
		for _, codec := range []compress.Mode{compress.None, compress.Snappy} {
			msg, _, err := AppendEncode(nil, buildBatch(200, 17), Options{Choice: choice, Codec: codec})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(msg)
		}
	}
	f.Add([]byte{magicByte})
	f.Fuzz(func(t *testing.T, data []byte) {
		var b Batch
		enc, err := DecodeInto(&b, data)
		if err != nil {
			return
		}
		choice := ForceSparse
		if enc.Mode == DenseMode {
			choice = ForceDense
		}
		roundTrip(t, &b, Options{Choice: choice, Codec: enc.Codec})
		if b.Hi-b.Lo <= 1<<20 {
			roundTrip(t, &b, Options{Choice: ForceDense, Codec: compress.None})
		}
	})
}

// roundTrip encodes b with opts, decodes the message, and fails unless the
// result carries b's exact header, ids and value bits.
func roundTrip(t *testing.T, b *Batch, opts Options) {
	t.Helper()
	msg, _, err := AppendEncode(nil, b, opts)
	if err != nil {
		t.Fatalf("decoded batch does not re-encode with %+v: %v", opts, err)
	}
	var got Batch
	if _, err := DecodeInto(&got, msg); err != nil {
		t.Fatalf("batch re-encoded with %+v does not decode: %v", opts, err)
	}
	if got.TileID != b.TileID || got.Lo != b.Lo || got.Hi != b.Hi || len(got.Updates) != len(b.Updates) {
		t.Fatalf("round trip with %+v changed the batch: %+v vs %+v", opts, got, b)
	}
	for i, u := range b.Updates {
		if g := got.Updates[i]; g.ID != u.ID || math.Float64bits(g.Value) != math.Float64bits(u.Value) {
			t.Fatalf("round trip with %+v changed update %d: %+v vs %+v", opts, i, g, u)
		}
	}
}

// BenchmarkDecodeIntoDenseRaw measures the new word-at-a-time scan with no
// codec in the way; BenchmarkDecodeDenseBitByBitReference is the old loop
// over the identical body.
func BenchmarkDecodeIntoDenseRaw(b *testing.B) {
	batch := buildBatch(1<<16, 1<<14)
	msg, _, err := AppendEncode(nil, batch, Options{Choice: ForceDense, Codec: compress.None})
	if err != nil {
		b.Fatal(err)
	}
	var dst Batch
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeInto(&dst, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeDenseBitByBitReference(b *testing.B) {
	batch := buildBatch(1<<16, 1<<14)
	body, n, bvLen := denseBody(b, batch)
	dst := Batch{Lo: batch.Lo, Updates: make([]Update, 0, 1<<14)}
	b.SetBytes(int64(len(body) + headerSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Match DecodeInto's work: integrity check plus the body scan.
		crc32.ChecksumIEEE(body)
		decodeDenseBitByBitReference(&dst, body, n, bvLen)
	}
}
