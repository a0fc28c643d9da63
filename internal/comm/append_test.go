package comm

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"testing"

	"repro/internal/compress"
	"repro/internal/racedetect"
)

// buildBatch constructs a batch over an n-vertex range with the given number
// of evenly spaced updates.
func buildBatch(n, updates int) *Batch {
	rng := rand.New(rand.NewPCG(7, 7))
	b := &Batch{TileID: 3, Lo: 100, Hi: 100 + uint32(n)}
	if updates == 0 {
		return b
	}
	step := n / updates
	if step < 1 {
		step = 1
	}
	for i := 0; i < updates; i++ {
		b.Updates = append(b.Updates, Update{ID: b.Lo + uint32(i*step), Value: rng.Float64()})
	}
	return b
}

// TestAppendEncodeMatchesEncode checks that appending a message after
// existing bytes produces the byte-identical message, and encoding report,
// of an encode into an empty buffer.
func TestAppendEncodeMatchesEncode(t *testing.T) {
	for _, codec := range compress.Modes {
		for _, choice := range []ModeChoice{Auto, ForceDense, ForceSparse} {
			b := buildBatch(512, 37)
			opts := Options{Choice: choice, Codec: codec}
			want, wantEnc, err := AppendEncode(nil, b, opts)
			if err != nil {
				t.Fatal(err)
			}
			prefix := []byte("prefix-")
			got, gotEnc, err := AppendEncode(append([]byte(nil), prefix...), b, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(got, prefix) {
				t.Fatalf("codec %v: AppendEncode clobbered the prefix", codec)
			}
			if !bytes.Equal(got[len(prefix):], want) {
				t.Fatalf("codec %v choice %v: appended message differs from a fresh one", codec, choice)
			}
			if gotEnc != wantEnc {
				t.Fatalf("codec %v: encoding report %+v != %+v", codec, gotEnc, wantEnc)
			}
		}
	}
}

// TestDecodeIntoReuse decodes a sequence of differently-shaped messages into
// one Batch and verifies each against the fresh-decode result.
func TestDecodeIntoReuse(t *testing.T) {
	var reused Batch
	for i, shape := range []struct{ n, updates int }{
		{1024, 900}, // dense
		{1024, 3},   // sparse, same range
		{64, 64},    // shrink
		{4096, 1},   // grow, sparse
		{16, 0},     // empty
	} {
		b := buildBatch(shape.n, shape.updates)
		msg, _, err := AppendEncode(nil, b, Options{Codec: compress.Snappy})
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := decode(msg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeInto(&reused, msg); err != nil {
			t.Fatalf("shape %d: %v", i, err)
		}
		if reused.TileID != want.TileID || reused.Lo != want.Lo || reused.Hi != want.Hi {
			t.Fatalf("shape %d: header mismatch %+v vs %+v", i, reused, want)
		}
		if len(reused.Updates) != len(want.Updates) {
			t.Fatalf("shape %d: %d updates, want %d", i, len(reused.Updates), len(want.Updates))
		}
		for j := range want.Updates {
			if reused.Updates[j] != want.Updates[j] {
				t.Fatalf("shape %d: update %d mismatch", i, j)
			}
		}
	}
}

// TestDecodeRejectsHugeHeaderWithoutAllocating corrupts the header's range
// and count fields — which the body CRC does not cover — to extreme values
// and checks DecodeInto rejects the message via the body-size checks
// instead of attempting a count-sized allocation first.
func TestDecodeRejectsHugeHeaderWithoutAllocating(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	b := buildBatch(256, 17)
	for _, codec := range []compress.Mode{compress.None, compress.Snappy} {
		for _, choice := range []ModeChoice{ForceDense, ForceSparse} {
			msg, _, err := AppendEncode(nil, b, Options{Choice: choice, Codec: codec})
			if err != nil {
				t.Fatal(err)
			}
			bad := append([]byte(nil), msg...)
			binary.LittleEndian.PutUint32(bad[6:], 0)           // Lo
			binary.LittleEndian.PutUint32(bad[10:], 0xFFFFFFFF) // Hi
			binary.LittleEndian.PutUint32(bad[14:], 0xFFFFFFFE) // count
			allocs := testing.AllocsPerRun(5, func() {
				var dst Batch
				if _, err := DecodeInto(&dst, bad); err == nil {
					t.Fatal("huge-header message accepted by DecodeInto")
				}
			})
			// The rejection path may allocate error values, but must never
			// allocate anything close to the claimed 4G-update batch.
			if allocs > 16 {
				t.Errorf("codec %v choice %v: rejection allocated %.0f objects", codec, choice, allocs)
			}
		}
	}
}

// TestAppendEncodeAllocs pins the warm wire path: encoding into a buffer
// with enough capacity must not allocate, for both wire modes, raw and
// snappy codecs.
func TestAppendEncodeAllocs(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	for _, tc := range []struct {
		name   string
		choice ModeChoice
		codec  compress.Mode
	}{
		{"dense-raw", ForceDense, compress.None},
		{"dense-snappy", ForceDense, compress.Snappy},
		{"sparse-raw", ForceSparse, compress.None},
		{"sparse-snappy", ForceSparse, compress.Snappy},
	} {
		b := buildBatch(4096, 512)
		opts := Options{Choice: tc.choice, Codec: tc.codec}
		// Warm: size the wire buffer and the pooled body scratch.
		wire, _, err := AppendEncode(nil, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			wire, _, err = AppendEncode(wire[:0], b, opts)
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: AppendEncode allocates %.1f times per warm call, want 0", tc.name, allocs)
		}
	}
}

// TestDecodeIntoAllocs pins the warm receive path to zero allocations for
// the raw codec and O(1) for snappy.
func TestDecodeIntoAllocs(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	for _, tc := range []struct {
		name  string
		codec compress.Mode
		max   float64
	}{
		{"raw", compress.None, 0},
		{"snappy", compress.Snappy, 0},
	} {
		b := buildBatch(4096, 512)
		msg, _, err := AppendEncode(nil, b, Options{Codec: tc.codec})
		if err != nil {
			t.Fatal(err)
		}
		var dst Batch
		if _, err := DecodeInto(&dst, msg); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := DecodeInto(&dst, msg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.max {
			t.Errorf("%s: DecodeInto allocates %.1f times per warm call, want ≤ %.0f", tc.name, allocs, tc.max)
		}
	}
}

func BenchmarkEncodeDenseSnappy(b *testing.B) {
	batch := buildBatch(1<<16, 1<<14)
	opts := Options{Choice: ForceDense, Codec: compress.Snappy}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := AppendEncode(nil, batch, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendEncodeDenseSnappy(b *testing.B) {
	batch := buildBatch(1<<16, 1<<14)
	opts := Options{Choice: ForceDense, Codec: compress.Snappy}
	var wire []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		wire, _, err = AppendEncode(wire[:0], batch, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendEncodeDenseRaw is BenchmarkAppendEncodeDenseSnappy's
// batch without compression: the difference between the two is what snappy
// adds per frame, the encode rate costmodel.SelectMsgCodec is pinned to.
func BenchmarkAppendEncodeDenseRaw(b *testing.B) {
	batch := buildBatch(1<<16, 1<<14)
	opts := Options{Choice: ForceDense, Codec: compress.None}
	var wire []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		wire, _, err = AppendEncode(wire[:0], batch, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendEncodeSparseSnappy(b *testing.B) {
	batch := buildBatch(1<<16, 1<<10)
	opts := Options{Choice: ForceSparse, Codec: compress.Snappy}
	var wire []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		wire, _, err = AppendEncode(wire[:0], batch, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeIntoDenseSnappy(b *testing.B) {
	batch := buildBatch(1<<16, 1<<14)
	msg, _, err := AppendEncode(nil, batch, Options{Choice: ForceDense, Codec: compress.Snappy})
	if err != nil {
		b.Fatal(err)
	}
	var dst Batch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeInto(&dst, msg); err != nil {
			b.Fatal(err)
		}
	}
}
