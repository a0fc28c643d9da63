package bench

import (
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/graph"
)

func init() {
	register(Experiment{ID: "f1a", Title: "Figure 1(a) — memory to run PageRank on UK-2007, per system", Run: runFigure1a})
	register(Experiment{ID: "f1b", Title: "Figure 1(b) — per-superstep PageRank time on UK-2007, per system", Run: runFigure1b})
	register(Experiment{ID: "f6a", Title: "Figure 6(a) — expected per-server memory, All-in-All vs On-Demand", Run: runFigure6a})
	register(Experiment{ID: "f6b", Title: "Figure 6(b) — measured per-server memory, PageRank & SSSP", Run: runFigure6b})
	register(Experiment{ID: "f7", Title: "Figure 7 — execution time & cache hit ratio per cache mode", Run: runFigure7})
	register(Experiment{ID: "f7b", Title: "Figure 7(b) — hit ratio & time vs cache capacity, per eviction policy", Run: runFigure7b})
	register(Experiment{ID: "f8a", Title: "Figure 8(a) — vertex updated ratio per superstep", Run: runFigure8a})
	register(Experiment{ID: "f8b", Title: "Figure 8(b) — network traffic, sparse vs dense mode", Run: runFigure8b})
	register(Experiment{ID: "f8c", Title: "Figure 8(c) — network traffic, hybrid mode × compressors", Run: runFigure8c})
	register(Experiment{ID: "f8d", Title: "Figure 8(d) — per-superstep time, hybrid mode × compressors", Run: runFigure8d})
}

// figure1Dataset is UK-2007, the paper's motivating workload.
const figure1Dataset = "uk2007-sim"

func runFigure1a(c *Context, w io.Writer) error {
	el, err := c.Dataset(figure1Dataset)
	if err != nil {
		return err
	}
	alg := baseline.PageRankAlg()
	tw := newTable(w)
	fmt.Fprintln(tw, "system\ttotal-mem-MB\tpaper-GB\tnote")
	paperGB := map[string]float64{
		"Giraph": 795, "GraphX": 685, "PowerGraph": 357, "PowerLyra": 511,
		"Pregel+": 281, "GraphD": 73, "Chaos": 26,
	}
	// Modelled systems (frameworks this repo does not rebuild).
	for _, name := range []string{"Giraph", "GraphX"} {
		mult, _ := costmodel.MeasuredMultiplier(name)
		fmt.Fprintf(tw, "%s\t%.2f\t%.0f\tmodelled: %.1fx input CSV\n",
			name, mult*float64(el.CSVSize())/1e6, paperGB[name], mult)
	}
	// Measured systems.
	for _, sys := range comparisonSystems() {
		res, err := sys.run(el, alg, c.baselineConfig(c.Servers))
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%s\t%.0f\tmeasured\n", sys.name, mb(res.TotalMemoryBytes()), paperGB[sys.name])
	}
	gh, err := c.runGraphH(figure1Dataset, apps.PageRank{}, c.Servers, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(tw, "GraphH\t%s\t-\tmeasured (hybrid: replicas + cached tiles)\n", mb(gh.TotalMemoryBytes()))
	return tw.Flush()
}

func runFigure1b(c *Context, w io.Writer) error {
	el, err := c.Dataset(figure1Dataset)
	if err != nil {
		return err
	}
	alg := baseline.PageRankAlg()
	tw := newTable(w)
	fmt.Fprintln(tw, "system\tavg-step-ms\tsupersteps\tnote")
	for _, sys := range comparisonSystems() {
		res, err := sys.run(el, alg, c.baselineConfig(c.Servers))
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t\n", sys.name, ms(res.AvgStepDuration()), res.Supersteps)
	}
	gh, err := c.runGraphH(figure1Dataset, apps.PageRank{}, c.Servers, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(tw, "GraphH\t%s\t%d\t\n", ms(gh.AvgStepDuration()), gh.Supersteps)
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "paper shape: in-memory (Pregel+/PowerGraph/PowerLyra) beat the out-of-core GraphD/Chaos by 2-6x; GraphH beats both groups")
	return nil
}

func runFigure6a(c *Context, w io.Writer) error {
	tw := newTable(w)
	fmt.Fprintln(tw, "graph\tpolicy\tN=1\tN=4\tN=8\tN=16\tN=32\tN=64\t(per-server memory, x|V| bytes)")
	for _, d := range graph.BenchmarkDatasets {
		g := costmodel.Params(d.PaperVertices, d.PaperEdges)
		row := func(policy string, f func(n int) float64) {
			fmt.Fprintf(tw, "%s\t%s", d.PaperName, policy)
			for _, n := range []int{1, 4, 8, 16, 32, 64} {
				fmt.Fprintf(tw, "\t%.1f", f(n)/float64(g.V))
			}
			fmt.Fprintln(tw)
		}
		row("all-in-all", func(n int) float64 { return costmodel.AAMemoryPerServer(g) })
		row("on-demand", func(n int) float64 { return costmodel.ODMemoryPerServer(g, n) })
		fmt.Fprintf(tw, "%s\tcrossover\tOD wins from N=%d\n", d.PaperName,
			costmodel.CrossoverServers(g, 256))
	}
	return tw.Flush()
}

func runFigure6b(c *Context, w io.Writer) error {
	tw := newTable(w)
	fmt.Fprintln(tw, "graph\tapp\tpeak-server-mem-MB\tbytes/|V|\tpaper-GB\t(AA policy, no edge cache, N=9)")
	paper := map[string]map[string]float64{
		"pagerank": {"twitter-sim": 5.1, "uk2007-sim": 9.5, "uk2014-sim": 25, "eu2015-sim": 33},
		"sssp":     {"twitter-sim": 4.5, "uk2007-sim": 7.1, "uk2014-sim": 15, "eu2015-sim": 18},
	}
	noCache := func(cfg *core.Config) {
		cfg.CacheCapacity = -1
		cfg.MaxSupersteps = 3
	}
	for _, d := range graph.BenchmarkDatasets {
		el, err := c.Dataset(d.Name)
		if err != nil {
			return err
		}
		for _, app := range []struct {
			name string
			prog core.Program
		}{{"pagerank", apps.PageRank{}}, {"sssp", apps.SSSP{Source: 0}}} {
			res, err := c.runGraphH(d.Name, app.prog, c.Servers, noCache)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.1f\t%.1f\n", d.Name, app.name,
				mb(res.PeakMemoryBytes()),
				float64(res.PeakMemoryBytes())/float64(el.NumVertices),
				paper[app.name][d.Name])
		}
	}
	return tw.Flush()
}

func runFigure7(c *Context, w io.Writer) error {
	// PageRank on EU-2015 with per-mode fixed caches under a capacity that
	// cannot hold the raw tiles (the 3-server regime of Figure 7) and one
	// that nearly can (the 9-server regime).
	p, err := c.Partitioned("eu2015-sim")
	if err != nil {
		return err
	}
	// Calibrate the disk to the paper's per-worker share: the testbed's
	// ~310 MB/s RAID is split across 22+ workers (≈14 MB/s each), which is
	// what makes trading decompression CPU for fewer disk reads profitable
	// in Figure 7. Our default model (200 MB/s over ~4 workers) is an
	// order of magnitude faster per worker, so this experiment pins a
	// proportionally slower device.
	slowDisk := int64(50) << 20
	tw := newTable(w)
	fmt.Fprintln(tw, "servers\tcache-mode\tavg-step-ms\thit-ratio\tdisk-rd-MB")
	for _, n := range []int{3, 9} {
		// Idle memory grows with the cluster: per-server capacity models
		// a fixed budget while the per-server tile share shrinks with N.
		capacity := p.TotalTileBytes() / 4
		for _, mode := range compress.Modes {
			res, err := c.runGraphH("eu2015-sim", apps.PageRank{}, n, func(cfg *core.Config) {
				cfg.CacheAuto = false
				cfg.CacheMode = mode
				cfg.CacheCapacity = capacity
				cfg.Disk.ReadBandwidth = slowDisk
				cfg.Disk.WriteBandwidth = slowDisk
			})
			if err != nil {
				return err
			}
			var hits, misses, rd int64
			for _, sv := range res.Servers {
				hits += sv.Cache.Hits
				misses += sv.Cache.Misses
				rd += sv.Disk.ReadBytes
			}
			hr := 0.0
			if hits+misses > 0 {
				hr = float64(hits) / float64(hits+misses)
			}
			fmt.Fprintf(tw, "%d\tmode-%d (%s)\t%s\t%.2f\t%s\n",
				n, mode.CacheModeNumber(), mode, ms(res.AvgStepDuration()), hr, mb(rd))
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "paper shape: at 3 servers compressed modes lift the hit ratio and cut time (mode-3 17.6x faster than mode-1); at 9 servers everything fits and decompression overhead makes mode-4 ~2x slower than mode-1")
	return nil
}

// runFigure7b is the cache-capacity sweep behind Figure 7(b): PageRank with
// the edge cache budgeted at 100/75/50/25% of the per-server tile working
// set, under each eviction policy. The cache mode is pinned to raw so the
// sweep isolates the eviction decision from compression trade-offs (those
// are f7's subject). The paper plots only its admit-no-evict policy; the
// CLOCK rows are this repo's extension — CLOCK matches admit-no-evict's hit
// ratio while staying able to follow working-set shifts. The model column is
// the costmodel's analytic cyclic-sweep hit ratio.
func runFigure7b(c *Context, w io.Writer) error {
	p, err := c.Partitioned("eu2015-sim")
	if err != nil {
		return err
	}
	// Same calibration as f7: a per-worker disk share matching the paper's
	// testbed, so misses that go back to disk carry their real cost.
	slowDisk := int64(50) << 20
	servers := 3
	perServer := p.TotalTileBytes() / int64(servers)
	tw := newTable(w)
	fmt.Fprintln(tw, "budget\tpolicy\thit-ratio\tmodel\tavg-step-ms\tdisk-rd-MB\tevictions")
	for _, pct := range []int{100, 75, 50, 25} {
		capacity := perServer * int64(pct) / 100
		for _, policy := range cache.Policies {
			policy := policy
			res, err := c.runGraphH("eu2015-sim", apps.PageRank{}, servers, func(cfg *core.Config) {
				cfg.CacheAuto = false
				cfg.CacheMode = compress.None
				cfg.CachePolicyAuto = false
				cfg.CachePolicy = policy
				cfg.CacheCapacity = capacity
				cfg.Disk.ReadBandwidth = slowDisk
				cfg.Disk.WriteBandwidth = slowDisk
			})
			if err != nil {
				return err
			}
			var hits, misses, evictions, rd int64
			for _, sv := range res.Servers {
				hits += sv.Cache.Hits
				misses += sv.Cache.Misses
				evictions += sv.Cache.Evictions
				rd += sv.Disk.ReadBytes
			}
			hr := 0.0
			if hits+misses > 0 {
				hr = float64(hits) / float64(hits+misses)
			}
			model := costmodel.CyclicHitRatio(perServer, capacity)
			fmt.Fprintf(tw, "%d%%\t%s\t%.2f\t%.2f\t%s\t%s\t%d\n",
				pct, policy, hr, model, ms(res.AvgStepDuration()), mb(rd), evictions)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "shape: admit-no-evict and clock hold the cached fraction at every budget")
	return nil
}

// figure8Horizon is the superstep budget of the long PageRank run Figure 8
// analyses. The paper runs ~200 supersteps on UK-2007; float64 PageRank
// reaches its per-vertex fixed points on a similar horizon (the update
// magnitude contracts by the 0.85 damping factor each step), so the decay
// of the updated ratio appears in the same region.
const figure8Horizon = 220

// figure8Run executes the long PageRank run Figure 8 analyses.
func figure8Run(c *Context, mutate func(*core.Config)) (*core.Result, error) {
	return c.runGraphH(figure1Dataset, apps.PageRank{}, c.Servers, func(cfg *core.Config) {
		cfg.MaxSupersteps = figure8Horizon
		if mutate != nil {
			mutate(cfg)
		}
	})
}

func runFigure8a(c *Context, w io.Writer) error {
	res, err := figure8Run(c, nil)
	if err != nil {
		return err
	}
	p, err := c.Partitioned(figure1Dataset)
	if err != nil {
		return err
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "superstep\tupdated\tupdated-ratio")
	for _, st := range res.Steps {
		if st.Superstep%10 != 0 && st.Superstep != len(res.Steps)-1 {
			continue
		}
		fmt.Fprintf(tw, "%d\t%d\t%.3f\n", st.Superstep, st.Updated,
			float64(st.Updated)/float64(p.NumVertices))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "paper shape: the ratio starts at 1.0 and decays below 0.5 late in the run (after step ~160 of ~200 at paper scale)")
	return nil
}

func runFigure8b(c *Context, w io.Writer) error {
	tw := newTable(w)
	fmt.Fprintln(tw, "superstep\tdense-MB\tsparse-MB")
	var dense, sparse *core.Result
	var err error
	raw := compress.None
	if dense, err = figure8Run(c, func(cfg *core.Config) {
		cfg.Comm = comm.ForceDense
		cfg.MsgCodec = &raw
	}); err != nil {
		return err
	}
	if sparse, err = figure8Run(c, func(cfg *core.Config) {
		cfg.Comm = comm.ForceSparse
		cfg.MsgCodec = &raw
	}); err != nil {
		return err
	}
	steps := len(dense.Steps)
	if len(sparse.Steps) < steps {
		steps = len(sparse.Steps)
	}
	for i := 0; i < steps; i++ {
		if i%10 != 0 && i != steps-1 {
			continue
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\n", i, mb(dense.Steps[i].WireBytes), mb(sparse.Steps[i].WireBytes))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "paper shape: dense traffic is flat; sparse scales with the updated count and only wins once the updated ratio drops")
	return nil
}

func runFigure8c(c *Context, w io.Writer) error {
	tw := newTable(w)
	fmt.Fprintln(tw, "codec\ttotal-wire-MB\ttotal-raw-MB\treduction")
	for _, codec := range compress.Modes {
		res, err := figure8Run(c, func(cfg *core.Config) { cfg.MsgCodec = &codec })
		if err != nil {
			return err
		}
		var wire, raw int64
		for _, st := range res.Steps {
			wire += st.WireBytes
			raw += st.RawBytes
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.2fx\n", codec, mb(wire), mb(raw), float64(raw)/float64(wire))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "paper: snappy/zlib-1/zlib-3 reduce traffic by 1.7x/2.3x/2.3x on UK-2007")
	return nil
}

func runFigure8d(c *Context, w io.Writer) error {
	tw := newTable(w)
	fmt.Fprintln(tw, "codec\tavg-step-ms")
	for _, codec := range compress.Modes {
		res, err := figure8Run(c, func(cfg *core.Config) { cfg.MsgCodec = &codec })
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%s\n", codec, ms(res.AvgStepDuration()))
	}
	// The last row leaves the codec to the cost model at this link.
	res, err := figure8Run(c, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(tw, "auto (%s)\t%s\n", costmodel.SelectMsgCodec(c.Servers, c.NetBW), ms(res.AvgStepDuration()))
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "paper: raw 2.32s, snappy 1.73s, zlib-1 1.56s, zlib-3 1.50s per superstep (first 50 steps); the auto row is costmodel.SelectMsgCodec's pick for this cluster's link")
	return nil
}
