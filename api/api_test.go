package api_test

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/api"
)

func TestValueRoundTrip(t *testing.T) {
	cases := []float64{
		0, 1, -1, 0.85, 1.0 / 3.0, math.Pi, 1e-308, 5e-324, math.MaxFloat64,
		math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x3fd5555555555555), // 1/3 exactly as stored
	}
	for _, f := range cases {
		b, err := json.Marshal(api.Value(f))
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		var got api.Value
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if math.Float64bits(float64(got)) != math.Float64bits(f) {
			t.Fatalf("%v: round-tripped to %v (bits differ)", f, float64(got))
		}
	}
	// NaN round-trips to NaN (bit pattern normalised is fine).
	b, _ := json.Marshal(api.Value(math.NaN()))
	var got api.Value
	if err := json.Unmarshal(b, &got); err != nil || !math.IsNaN(float64(got)) {
		t.Fatalf("NaN → %s → %v (%v)", b, float64(got), err)
	}
	// A whole vector survives, ±Inf included — this is the result-page path.
	in := []float64{0, math.Inf(1), 2.5, math.Inf(-1)}
	bs, err := json.Marshal(api.Values(in))
	if err != nil {
		t.Fatal(err)
	}
	var vs []api.Value
	if err := json.Unmarshal(bs, &vs); err != nil {
		t.Fatal(err)
	}
	out := api.Floats(vs)
	for i := range in {
		if math.Float64bits(out[i]) != math.Float64bits(in[i]) {
			t.Fatalf("vector slot %d: %v != %v", i, out[i], in[i])
		}
	}
}

func TestValueRejectsGarbage(t *testing.T) {
	for _, s := range []string{`"Infinity"`, `"nan"`, `"+inf"`, `"1.5x"`, `{}`, `[1]`, `true`} {
		var v api.Value
		if err := json.Unmarshal([]byte(s), &v); err == nil {
			t.Fatalf("%s: accepted", s)
		}
	}
}

func TestDecodeJobRequest(t *testing.T) {
	good := []string{
		`{"program":{"name":"pagerank"}}`,
		`{"program":{"name":"pagerank","damping":0.5},"options":{"max_supersteps":10}}`,
		`{"program":{"name":"sssp","source":7},"options":{"message_codec":"zlib-1","weight":4}}`,
		`{"program":{"name":"wcc"},"options":{"checkpoint_every":-1}}`,
	}
	for _, s := range good {
		if _, err := api.DecodeJobRequest([]byte(s)); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	bad := map[string]string{
		`{}`:                              "unknown program",
		`{"program":{"name":"dijkstra"}}`: "unknown program",
		`{"program":{"name":"pagerank","source":1}}`:                            "source on non-sssp",
		`{"program":{"name":"wcc","damping":0.5}}`:                              "damping on non-pagerank",
		`{"program":{"name":"pagerank","damping":1.0}}`:                         "damping out of range",
		`{"program":{"name":"pagerank"},"options":{"max_supersteps":-1}}`:       "negative bound",
		`{"program":{"name":"pagerank"},"options":{"max_supersteps":99999999}}`: "bound too large",
		`{"program":{"name":"pagerank"},"options":{"checkpoint_every":1000}}`:   "checkpoint interval too large",
		`{"program":{"name":"pagerank"},"options":{"weight":-3}}`:               "negative weight",
		`{"program":{"name":"pagerank"},"options":{"message_codec":"lz4"}}`:     "unknown codec",
		`{"program":{"name":"pagerank"},"optionz":{}}`:                          "unknown field",
		`{"program":{"name":"wcc"},"options":{"lockstep":true}}`:                "removed field",
		`{"program":{"name":"pagerank"}}{"program":{"name":"wcc"}}`:             "trailing document",
		``:        "empty body",
		`"hello"`: "not an object",
	}
	for s, why := range bad {
		if _, err := api.DecodeJobRequest([]byte(s)); err == nil {
			t.Fatalf("accepted %s (%s)", s, why)
		}
	}
}

// FuzzDecodeJobRequest hammers the one decoder that parses untrusted remote
// input. Invariant: no panic, and anything accepted re-validates and
// re-decodes to an equal request after an encode round trip.
func FuzzDecodeJobRequest(f *testing.F) {
	f.Add([]byte(`{"program":{"name":"pagerank"}}`))
	f.Add([]byte(`{"program":{"name":"sssp","source":7},"options":{"max_supersteps":10,"message_codec":"snappy"}}`))
	f.Add([]byte(`{"program":{"name":"wcc"},"options":{"message_codec":"zlib-3","weight":2,"checkpoint_every":-1}}`))
	f.Add([]byte(`{"program":{"name":"bfs","source":4294967295}}`))
	f.Add([]byte(`{"program":{"name":"pagerank","damping":0.99999}}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(strings.Repeat(`[`, 1000)))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := api.DecodeJobRequest(data)
		if err != nil {
			return
		}
		if err := req.Validate(); err != nil {
			t.Fatalf("decoded request fails Validate: %v", err)
		}
		if _, err := req.Program.Build(); err != nil {
			t.Fatalf("decoded request fails Build: %v", err)
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encoding: %v", err)
		}
		again, err := api.DecodeJobRequest(enc)
		if err != nil {
			t.Fatalf("re-decoding %s: %v", enc, err)
		}
		if *again != *req {
			t.Fatalf("round trip changed the request: %+v != %+v", again, req)
		}
	})
}
