// Benchmarks regenerating every table and figure of the paper's evaluation,
// one testing.B target per artifact (see DESIGN.md's experiment index).
// Each benchmark executes the corresponding harness experiment end to end;
// reported ns/op is the full experiment wall time. Dataset scale follows
// GRAPHH_BENCH_SCALE (default 0.25 here, so the whole suite stays in the
// minutes range; use cmd/graphh-bench for full-scale runs and EXPERIMENTS.md
// numbers).
package graphh_test

import (
	"io"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro"
	"repro/internal/bench"
)

var benchCtx = sync.OnceValue(func() *bench.Context {
	c := bench.NewContext()
	if os.Getenv("GRAPHH_BENCH_SCALE") == "" && os.Getenv("GRAPHH_SCALE") == "" {
		c.Scale = 0.25
	}
	if s := os.Getenv("GRAPHH_BENCH_SERVERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			c.Servers = n
		}
	}
	return c
})

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := bench.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	c := benchCtx()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(c, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1DatasetStats regenerates Table I (dataset statistics).
func BenchmarkTable1DatasetStats(b *testing.B) { runExperiment(b, "t1") }

// BenchmarkTable3CostModel regenerates Table III (per-system cost model).
func BenchmarkTable3CostModel(b *testing.B) { runExperiment(b, "t3") }

// BenchmarkTable4InputSize regenerates Table IV (input data sizes).
func BenchmarkTable4InputSize(b *testing.B) { runExperiment(b, "t4") }

// BenchmarkTable5Compression regenerates Table V (codec ratio/throughput).
func BenchmarkTable5Compression(b *testing.B) { runExperiment(b, "t5") }

// BenchmarkFigure1aMemory regenerates Figure 1(a) (per-system memory).
func BenchmarkFigure1aMemory(b *testing.B) { runExperiment(b, "f1a") }

// BenchmarkFigure1bTime regenerates Figure 1(b) (per-system step time).
func BenchmarkFigure1bTime(b *testing.B) { runExperiment(b, "f1b") }

// BenchmarkFigure6aReplicationPolicy regenerates Figure 6(a) (AA vs OD).
func BenchmarkFigure6aReplicationPolicy(b *testing.B) { runExperiment(b, "f6a") }

// BenchmarkFigure6bMemoryUsage regenerates Figure 6(b) (measured memory).
func BenchmarkFigure6bMemoryUsage(b *testing.B) { runExperiment(b, "f6b") }

// BenchmarkFigure7CacheModes regenerates Figure 7 (cache modes).
func BenchmarkFigure7CacheModes(b *testing.B) { runExperiment(b, "f7") }

// BenchmarkFigure8aUpdateRatio regenerates Figure 8(a) (updated ratio).
func BenchmarkFigure8aUpdateRatio(b *testing.B) { runExperiment(b, "f8a") }

// BenchmarkFigure8bSparseDense regenerates Figure 8(b) (sparse vs dense).
func BenchmarkFigure8bSparseDense(b *testing.B) { runExperiment(b, "f8b") }

// BenchmarkFigure8cHybridTraffic regenerates Figure 8(c) (codec traffic).
func BenchmarkFigure8cHybridTraffic(b *testing.B) { runExperiment(b, "f8c") }

// BenchmarkFigure8dHybridTime regenerates Figure 8(d) (codec step time).
func BenchmarkFigure8dHybridTime(b *testing.B) { runExperiment(b, "f8d") }

// BenchmarkFigure9PageRank regenerates Figure 9 (PageRank system grid).
func BenchmarkFigure9PageRank(b *testing.B) { runExperiment(b, "f9") }

// BenchmarkFigure10SSSP regenerates Figure 10 (SSSP system grid).
func BenchmarkFigure10SSSP(b *testing.B) { runExperiment(b, "f10") }

// BenchmarkAblationReplication covers ablation A1 (AA vs OD, measured).
func BenchmarkAblationReplication(b *testing.B) { runExperiment(b, "a1") }

// BenchmarkAblationBloomSkip covers ablation A2 (tile skipping).
func BenchmarkAblationBloomSkip(b *testing.B) { runExperiment(b, "a2") }

// BenchmarkAblationCommModes covers ablation A3 (hybrid/dense/sparse).
func BenchmarkAblationCommModes(b *testing.B) { runExperiment(b, "a3") }

// BenchmarkAblationCacheAuto covers ablation A4 (auto cache mode).
func BenchmarkAblationCacheAuto(b *testing.B) { runExperiment(b, "a4") }

// BenchmarkAblationTileSize covers ablation A5 (tile size sweep).
func BenchmarkAblationTileSize(b *testing.B) { runExperiment(b, "a5") }

// benchPageRank runs ten PageRank supersteps end to end on an N-server
// cluster — the direct measure of the superstep hot path that the zero-copy
// tile codec, the allocation-free scratch buffers, and the pipelined
// communication subsystem target (see PERF.md for tracked numbers; run with
// -benchmem). The NIC is modelled at 1 Gbps so wire time is visible at
// laptop scale, and the pipelined sends overlap it with gather compute.
// Scale follows GRAPHH_BENCH_SCALE like the rest of the suite.
func benchPageRank(b *testing.B, servers int) {
	g, err := graphh.Generate("uk2007-sim", benchCtx().Scale)
	if err != nil {
		b.Fatal(err)
	}
	p, err := graphh.Partition(g, graphh.PartitionOptions{})
	if err != nil {
		b.Fatal(err)
	}
	opts := graphh.Options{
		Servers:       servers,
		MaxSupersteps: 10,
		NetBandwidth:  125e6, // 1 Gbps commodity NIC
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graphh.Run(p, graphh.NewPageRank(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPageRank4Servers(b *testing.B) { benchPageRank(b, 4) }
func BenchmarkPageRank8Servers(b *testing.B) { benchPageRank(b, 8) }
