package api_test

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/api"
)

// jsonPage is the reference encoder: the bytes encoding/json writes for a
// ResultPage, which AppendResultPage must reproduce exactly.
func jsonPage(t testing.TB, jobID string, offset, total int, values []float64) []byte {
	var buf bytes.Buffer
	page := &api.ResultPage{JobID: jobID, Offset: offset, Total: total, Values: api.Values(values)}
	if err := json.NewEncoder(&buf).Encode(page); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// pageRankValues returns n values of the size a PageRank vector holds:
// around 1/n, with all 17 significant digits in play.
func pageRankValues(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	out := make([]float64, n)
	for i := range out {
		out[i] = 0.15/float64(n) + rng.Float64()*2/float64(n)
	}
	return out
}

// wireValues covers every shape of value text: the non-finite strings,
// both zeros, subnormals, the 'g' format's exponent switch points on both
// sides, integral values and PageRank-sized ones.
func wireValues() []float64 {
	vs := []float64{
		math.Inf(1), math.Inf(-1), math.NaN(),
		0, math.Copysign(0, -1),
		5e-324, -5e-324, 2.225073858507201e-308, math.SmallestNonzeroFloat64 * 12345,
		math.MaxFloat64, -math.MaxFloat64,
		1e21, 1e20, 999999999999999999999, 1e-7, 1e-6, 1.5e-7, 123456e-12,
		1, -1, 2, 42, 1 << 53, 1<<53 + 2, 123456789, -100000, 1e15, 1e16,
		0.85, 1.0 / 3.0, math.Pi,
	}
	return append(vs, pageRankValues(64)...)
}

// wireIDs are job ids that exercise every branch of encoding/json's string
// escaping: the HTML-sensitive characters, quotes and backslashes, control
// bytes, the JavaScript line separators and invalid UTF-8.
var wireIDs = []string{
	"j1", "", `<>&"\`, "a/b", "tab\tnl\ncr\rbs\bff\f", "\x00\x01\x1f\x7f",
	"sep\u2028par\u2029", "bad\xffutf8\xc3", "héllo ☃ 𝄞",
}

// TestResultPageWire pins the wire: AppendResultPage writes exactly what
// encoding/json writes for a ResultPage, and DecodeResultPageInto reads back
// the same bits as encoding/json followed by api.Floats.
func TestResultPageWire(t *testing.T) {
	values := wireValues()
	for _, id := range wireIDs {
		for _, vs := range [][]float64{nil, values[:1], values} {
			got := api.AppendResultPage(nil, id, 3, 1000, vs)
			want := jsonPage(t, id, 3, 1000, vs)
			if !bytes.Equal(got, want) {
				t.Fatalf("job %q, %d values:\n got %s\nwant %s", id, len(vs), got, want)
			}
			checkAgainstJSON(t, got)
		}
	}
	// The same bytes, spelled out, so a change to Value's text form shows
	// here even though the reference encoder shares it.
	got := api.AppendResultPage(nil, `<j&"1">`, 0, 9,
		[]float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 1e21, 1e-7, 5e-324, 42, 0.15})
	want := `{"job_id":"\u003cj\u0026\"1\"\u003e","offset":0,"total":9,` +
		`"values":["+Inf","-Inf","NaN",-0,1e+21,1e-07,5e-324,42,0.15]}` + "\n"
	if string(got) != want {
		t.Fatalf("got  %s\nwant %s", got, want)
	}
}

// TestDecodeResultPageInto runs hand-written pages through the decoder and
// the encoding/json reference: both must accept the same documents and
// agree on every field.
func TestDecodeResultPageInto(t *testing.T) {
	for _, s := range resultPageSeeds() {
		checkAgainstJSON(t, []byte(s))
	}
	// An unknown key's value may nest as deep as encoding/json allows, and
	// no deeper. These stay out of the fuzz corpus, where minimizing a
	// 50 KB input would eat the fuzzing budget.
	for _, s := range []string{
		`{"a":` + strings.Repeat(`[`, 10000) + strings.Repeat(`]`, 10000) + `}`,
		`{"a":` + strings.Repeat(`[`, 9999) + strings.Repeat(`]`, 9999) + `}`,
		`{"a":` + strings.Repeat(`{"b":`, 9999) + `1` + strings.Repeat(`}`, 9999) + `}`,
	} {
		checkAgainstJSON(t, []byte(s))
	}
	// The decoder appends to the caller's slice rather than replacing it.
	dst := []float64{7, 8}
	_, off, total, vals, err := api.DecodeResultPageInto(dst, []byte(`{"job_id":"j","offset":2,"total":4,"values":[1,"+Inf"]}`))
	if err != nil || off != 2 || total != 4 || len(vals) != 4 || vals[0] != 7 || vals[1] != 8 || vals[2] != 1 || !math.IsInf(vals[3], 1) {
		t.Fatalf("got offset %d total %d values %v err %v", off, total, vals, err)
	}
}

// resultPageSeeds are the pages the decoder test and fuzzer start from:
// encoder output, the forms encoding/json tolerates, and hostile pages.
func resultPageSeeds() []string {
	return []string{
		string(api.AppendResultPage(nil, "j1", 0, 3, []float64{0.25, math.Inf(1), -1e-300})),
		string(api.AppendResultPage(nil, `<>&"\`, 4096, 8192, pageRankValues(16))),
		// Reordered keys, whitespace, escapes, case-folded and unknown keys.
		" {\n\t\"values\" : [ 1 , 2.5e3 ,-0 ] ,\"total\":3, \"offset\" :0 ,\"job_id\":\"j\\u00e9\\n\"}\r\n",
		`{"JOB_ID":"x","Offset":1,"TOTAL":2,"VaLuEs":[]}`,
		`{"offſet":5,"values":["+Inf","NaN","-Inf"]}`,
		`{"extra":{"a":[1,{"b":null}],"c":"𝄞"},"more":[true,false,null,-1.5E+2],"values":[1]}`,
		`{"values":[1,2],"values":[3],"total":1,"total":null,"job_id":"a","job_id":null}`,
		`{"values":[1],"values":null}`,
		`{"job_id":"\ud800x\udc00\ud800A","values":[]}`,
		"{\"job_id\":\"raw\xff\xfe\",\"values\":[]}",
		`{}`, `null`, ` null `,
		// Hostile or malformed pages.
		`{"total":-1,"offset":0,"values":[]}`,
		`{"total":1099511627776,"offset":0,"values":[0]}`,
		`{"total":9223372036854775808}`,
		`{"offset":1.0}`, `{"offset":1e3}`, `{"offset":"1"}`, `{"offset":-0}`,
		`{"job_id":5}`, `{"job_id":["x"]}`, `{"values":5}`, `{"values":{}}`, `{"values":"x"}`,
		`{"values":[null]}`, `{"values":[true]}`, `{"values":[[1]]}`, `{"values":[{}]}`,
		`{"values":["Infinity"]}`, `{"values":["inf"]}`, `{"values":["+Inf "]}`,
		`{"values":[1e400]}`, `{"values":[-1e400]}`, `{"values":[1e-400]}`,
		`{"values":[01]}`, `{"values":[1.]}`, `{"values":[.5]}`, `{"values":[+1]}`, `{"values":[0x10]}`,
		`{"values":[1,]}`, `{"values":[,1]}`, `{"values":[1 2]}`, `{"values":[1]`, `{"values":[1]}}`,
		`{"values":[1]} x`, `{"values":[1]}{}`, `[1,2]`, `"page"`, `5`, `true`, ``, ` `, `nul`,
		`{"a":tru}`, `{"a":nulls}`, `{"a" 1}`, `{a:1}`, `{"a":1,}`, `{,}`, `{"a":"\x"}`, `{"a":"\u12"}`,
		"{\"a\":\"ctl\x01\"}", `{"a":"unterminated}`, `{"values":["\ud800"]}`,
	}
}

// checkAgainstJSON decodes data with DecodeResultPageInto and with
// json.Unmarshal into a ResultPage, and fails unless both reject it or both
// accept it with identical fields and value bits. It also bounds what the
// decoder allocates by the input's length.
func checkAgainstJSON(t *testing.T, data []byte) {
	t.Helper()
	var want api.ResultPage
	wantErr := json.Unmarshal(data, &want)
	id, off, total, vals, err := api.DecodeResultPageInto([]float64{-7}, data)
	if wantErr != nil {
		if err == nil {
			t.Fatalf("accepted %.200q, which encoding/json rejects: %v", data, wantErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("rejected %.200q, which encoding/json accepts: %v", data, err)
	}
	if id != want.JobID || off != want.Offset || total != want.Total {
		t.Fatalf("%.200q: got job %q offset %d total %d, encoding/json %q %d %d",
			data, id, off, total, want.JobID, want.Offset, want.Total)
	}
	wantVals := api.Floats(want.Values)
	if len(vals) != 1+len(wantVals) || math.Float64bits(vals[0]) != math.Float64bits(-7) {
		t.Fatalf("%.200q: got %d values after the caller's, encoding/json %d", data, len(vals)-1, len(wantVals))
	}
	for i, w := range wantVals {
		if math.Float64bits(vals[1+i]) != math.Float64bits(w) {
			t.Fatalf("%.200q: value %d is %v (%#x), encoding/json %v (%#x)",
				data, i, vals[1+i], math.Float64bits(vals[1+i]), w, math.Float64bits(w))
		}
	}
	if cap(vals) > len(data) || len(id) > 3*len(data) {
		t.Fatalf("%.200q (%d bytes): values grew to capacity %d, job id to %d bytes", data, len(data), cap(vals), len(id))
	}
}

// FuzzDecodeResultPageInto: the decoder never panics, accepts exactly what
// encoding/json accepts as a ResultPage, agrees with it bit for bit, and
// grows its output no further than the input's length justifies.
func FuzzDecodeResultPageInto(f *testing.F) {
	for _, s := range resultPageSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstJSON(t, data)
	})
}

// TestAppendResultPageWarmAllocs: encoding a page into a buffer that
// already has room allocates nothing, which is what the daemon's pooled
// page buffers rely on.
func TestAppendResultPageWarmAllocs(t *testing.T) {
	values := pageRankValues(4096)
	buf := api.AppendResultPage(nil, "j42", 8192, 100000, values)
	if allocs := testing.AllocsPerRun(20, func() {
		buf = api.AppendResultPage(buf[:0], "j42", 8192, 100000, values)
	}); allocs != 0 {
		t.Fatalf("warm AppendResultPage: %v allocations per page, want 0", allocs)
	}
}

// benchPageValues is the daemon's default page size.
const benchPageValues = 4096

func BenchmarkResultPageEncode(b *testing.B) {
	values := pageRankValues(benchPageValues)
	b.Run("codec", func(b *testing.B) {
		buf := api.AppendResultPage(nil, "j1", 0, benchPageValues, values)
		b.SetBytes(int64(len(buf)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = api.AppendResultPage(buf[:0], "j1", 0, benchPageValues, values)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchPageValues), "ns/value")
	})
	b.Run("encoding_json", func(b *testing.B) {
		var buf bytes.Buffer
		b.SetBytes(int64(len(jsonPage(b, "j1", 0, benchPageValues, values))))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			page := &api.ResultPage{JobID: "j1", Total: benchPageValues, Values: api.Values(values)}
			if err := json.NewEncoder(&buf).Encode(page); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchPageValues), "ns/value")
	})
}

func BenchmarkResultPageDecode(b *testing.B) {
	values := pageRankValues(benchPageValues)
	data := api.AppendResultPage(nil, "j1", 0, benchPageValues, values)
	b.Run("codec", func(b *testing.B) {
		dst := make([]float64, 0, benchPageValues)
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if _, _, _, dst, err = api.DecodeResultPageInto(dst[:0], data); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchPageValues), "ns/value")
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var page api.ResultPage
			if err := json.NewDecoder(bytes.NewReader(data)).Decode(&page); err != nil {
				b.Fatal(err)
			}
			_ = api.Floats(page.Values)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchPageValues), "ns/value")
	})
}
