package compress

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"repro/internal/racedetect"
)

// appendTestData mixes compressible runs with random bytes.
func appendTestData(n int) []byte {
	rng := rand.New(rand.NewPCG(2, 2))
	data := make([]byte, n)
	for i := range data {
		if i%3 == 0 {
			data[i] = byte(rng.Uint32())
		} else {
			data[i] = byte(i / 64)
		}
	}
	return data
}

// TestAppendRoundTrip checks AppendCompress/AppendDecompress for every mode,
// with and without pre-existing destination content, against the results of
// appending to an empty destination.
func TestAppendRoundTrip(t *testing.T) {
	data := appendTestData(1 << 16)
	for _, m := range Modes {
		plain, err := m.AppendCompress(nil, data)
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte{0xAB, 0xCD}
		appended, err := m.AppendCompress(append([]byte(nil), prefix...), data)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(appended[:2], prefix) {
			t.Fatalf("%s: AppendCompress clobbered prefix", m)
		}
		if !bytes.Equal(appended[2:], plain) {
			t.Fatalf("%s: appended output differs from a fresh one", m)
		}

		back, err := m.AppendDecompress(append([]byte(nil), prefix...), plain)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back[:2], prefix) {
			t.Fatalf("%s: AppendDecompress clobbered prefix", m)
		}
		if !bytes.Equal(back[2:], data) {
			t.Fatalf("%s: AppendDecompress round trip mismatch", m)
		}
	}
}

// TestAppendReusesCapacity verifies that a warm destination buffer is reused
// rather than reallocated for the allocation-free modes (raw and snappy).
func TestAppendReusesCapacity(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	data := appendTestData(1 << 15)
	for _, m := range []Mode{None, Snappy} {
		buf, err := m.AppendCompress(nil, data)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := m.AppendDecompress(nil, buf)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			var err error
			buf, err = m.AppendCompress(buf[:0], data)
			if err != nil {
				t.Fatal(err)
			}
			dec, err = m.AppendDecompress(dec[:0], buf)
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warm append cycle allocates %.1f times, want 0", m, allocs)
		}
		if !bytes.Equal(dec, data) {
			t.Errorf("%s: warm append cycle corrupted data", m)
		}
	}
}
