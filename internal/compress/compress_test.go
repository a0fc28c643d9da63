package compress

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestRoundTripAllModes(t *testing.T) {
	payloads := map[string][]byte{
		"empty":      nil,
		"tiny":       []byte("x"),
		"text":       bytes.Repeat([]byte("graph processing "), 1000),
		"binaryruns": bytes.Repeat([]byte{0, 0, 0, 1}, 5000),
		"random":     randomBytes(20_000, 5),
	}
	for _, m := range Modes {
		for name, src := range payloads {
			enc, err := m.AppendCompress(nil, src)
			if err != nil {
				t.Fatalf("%s/%s compress: %v", m, name, err)
			}
			dec, err := m.AppendDecompress(nil, enc)
			if err != nil {
				t.Fatalf("%s/%s decompress: %v", m, name, err)
			}
			if !bytes.Equal(dec, src) {
				t.Fatalf("%s/%s round trip mismatch (%d -> %d -> %d)", m, name, len(src), len(enc), len(dec))
			}
		}
	}
}

func randomBytes(n int, seed uint64) []byte {
	rng := rand.New(rand.NewPCG(seed, seed))
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
	return b
}

func TestCompressionOrdering(t *testing.T) {
	// On compressible data the paper's ordering must hold:
	// raw ≥ snappy ≥ zlib-1 ≥ zlib-3 (Table V).
	src := bytes.Repeat([]byte("0123456789abcdef edge "), 5000)
	var sizes [4]int
	for i, m := range Modes {
		enc, err := m.AppendCompress(nil, src)
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = len(enc)
	}
	if !(sizes[0] >= sizes[1] && sizes[1] >= sizes[2] && sizes[2] >= sizes[3]) {
		t.Fatalf("compression sizes not monotone: %v", sizes)
	}
}

func TestModeNames(t *testing.T) {
	want := []string{"raw", "snappy", "zlib-1", "zlib-3"}
	for i, m := range Modes {
		if m.String() != want[i] {
			t.Errorf("mode %d name %q, want %q", i, m.String(), want[i])
		}
		back, err := ModeByName(m.String())
		if err != nil || back != m {
			t.Errorf("ModeByName(%q) = %v, %v", m.String(), back, err)
		}
		if m.CacheModeNumber() != i+1 {
			t.Errorf("cache mode number of %s = %d, want %d", m, m.CacheModeNumber(), i+1)
		}
	}
	if _, err := ModeByName("lz4"); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

func TestExpectedRatios(t *testing.T) {
	// The γ values from §IV-B.
	want := map[Mode]float64{None: 1, Snappy: 2, Zlib1: 4, Zlib3: 5}
	for m, r := range want {
		if m.ExpectedRatio() != r {
			t.Errorf("γ(%s) = %g, want %g", m, m.ExpectedRatio(), r)
		}
	}
}

func TestSelectCacheMode(t *testing.T) {
	cases := []struct {
		tiles, cap int64
		want       Mode
	}{
		{tiles: 100, cap: 100, want: None},  // fits raw
		{tiles: 100, cap: 60, want: Snappy}, // fits at γ=2
		{tiles: 100, cap: 30, want: Zlib1},  // fits at γ=4
		{tiles: 100, cap: 21, want: Zlib3},  // fits at γ=5
		{tiles: 100, cap: 10, want: Zlib1},  // nothing fits → paper fallback
		{tiles: 100, cap: 0, want: Zlib1},   // no cache → fallback
		{tiles: 0, cap: 1, want: None},      // empty input fits anywhere
	}
	for _, c := range cases {
		if got := SelectCacheMode(c.tiles, c.cap); got != c.want {
			t.Errorf("SelectCacheMode(%d, %d) = %s, want %s", c.tiles, c.cap, got, c.want)
		}
	}
}

func TestDecompressCorrupt(t *testing.T) {
	for _, m := range []Mode{Snappy, Zlib1, Zlib3} {
		if _, err := m.AppendDecompress(nil, []byte("definitely not compressed")); err == nil {
			t.Errorf("%s accepted garbage", m)
		}
	}
}

func TestInvalidMode(t *testing.T) {
	bad := Mode(99)
	if bad.Valid() {
		t.Fatal("mode 99 claims validity")
	}
	if _, err := bad.AppendCompress(nil, []byte("x")); err == nil {
		t.Fatal("invalid mode compressed")
	}
	if _, err := bad.AppendDecompress(nil, []byte("x")); err == nil {
		t.Fatal("invalid mode decompressed")
	}
}

func TestCompressCopiesInput(t *testing.T) {
	src := []byte("mutable")
	enc, err := None.AppendCompress(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	src[0] = 'X'
	if enc[0] == 'X' {
		t.Fatal("raw mode aliases its input")
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	prop := func(data []byte, modeIdx uint8) bool {
		m := Modes[int(modeIdx)%len(Modes)]
		enc, err := m.AppendCompress(nil, data)
		if err != nil {
			return false
		}
		dec, err := m.AppendDecompress(nil, enc)
		return err == nil && bytes.Equal(dec, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
