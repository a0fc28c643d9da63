package bench

import (
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/tile"
)

func init() {
	register(Experiment{ID: "a1", Title: "Ablation — All-in-All vs On-Demand replication (§IV-A)", Run: runAblationReplication})
	register(Experiment{ID: "a2", Title: "Ablation — Bloom-filter tile skipping (§III-C-4)", Run: runAblationBloomSkip})
	register(Experiment{ID: "a3", Title: "Ablation — hybrid vs dense vs sparse communication (§IV-C)", Run: runAblationComm})
	register(Experiment{ID: "a4", Title: "Ablation — automatic cache-mode selection (§IV-B)", Run: runAblationCacheAuto})
	register(Experiment{ID: "a5", Title: "Ablation — tile size S (§III-B-3)", Run: runAblationTileSize})
}

func runAblationReplication(c *Context, w io.Writer) error {
	tw := newTable(w)
	fmt.Fprintln(tw, "graph\tpolicy\tpeak-server-mem-MB\tavg-step-ms\tvertex-slots")
	for _, ds := range []string{"twitter-sim", "uk2007-sim"} {
		for _, policy := range []core.ReplicationPolicy{core.AllInAll, core.OnDemand} {
			res, err := c.runGraphH(ds, apps.PageRank{}, c.Servers, func(cfg *core.Config) {
				cfg.Replication = policy
			})
			if err != nil {
				return err
			}
			slots := 0
			for _, sv := range res.Servers {
				if sv.VertexSlots > slots {
					slots = sv.VertexSlots
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\n", ds, policy,
				mb(res.PeakMemoryBytes()), ms(res.AvgStepDuration()), slots)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "expectation (§IV-A): in small clusters AA uses less memory than OD despite storing unused replicas, because OD pays indexing overhead; AA is also faster (no hash lookups in gather)")
	return nil
}

func runAblationBloomSkip(c *Context, w io.Writer) error {
	// SSSP keeps a narrow frontier: the skipping sweet spot.
	tw := newTable(w)
	fmt.Fprintln(tw, "graph\tbloom-skip\tsupersteps\ttiles-loaded\ttiles-skipped\tedges-gathered\tdisk-rd-MB\tavg-step-ms")
	for _, ds := range []string{"uk2007-sim"} {
		for _, skip := range []bool{true, false} {
			res, err := c.runGraphH(ds, apps.SSSP{Source: 0}, c.Servers, func(cfg *core.Config) {
				cfg.BloomSkip = skip
				cfg.MaxSupersteps = 60
				cfg.CacheCapacity = -1 // no cache: every load is a disk read
			})
			if err != nil {
				return err
			}
			var loaded, skipped int
			var gathered, rd int64
			for _, st := range res.Steps {
				loaded += st.LoadedTiles
				skipped += st.SkippedTiles
				gathered += st.GatheredEdges
			}
			for _, sv := range res.Servers {
				rd += sv.Disk.ReadBytes
			}
			fmt.Fprintf(tw, "%s\t%v\t%d\t%d\t%d\t%d\t%s\t%s\n", ds, skip,
				res.Supersteps, loaded, skipped, gathered, mb(rd), ms(res.AvgStepDuration()))
		}
	}
	return tw.Flush()
}

func runAblationComm(c *Context, w io.Writer) error {
	tw := newTable(w)
	fmt.Fprintln(tw, "app\tmode\ttotal-wire-MB\tavg-step-ms")
	for _, app := range []struct {
		name string
		prog core.Program
		max  int
	}{
		{"pagerank", apps.PageRank{}, c.Supersteps * 2},
		{"sssp", apps.SSSP{Source: 0}, 60},
	} {
		for _, mode := range []struct {
			name   string
			choice comm.ModeChoice
		}{{"hybrid", comm.Auto}, {"dense", comm.ForceDense}, {"sparse", comm.ForceSparse}} {
			res, err := c.runGraphH("uk2007-sim", app.prog, c.Servers, func(cfg *core.Config) {
				cfg.Comm = mode.choice
				cfg.MaxSupersteps = app.max
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", app.name, mode.name,
				mb(res.TotalWireBytes()), ms(res.AvgStepDuration()))
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "expectation (§IV-C): hybrid tracks the better of the two pure modes on both workloads — dense wins for PageRank's high update ratios, sparse for SSSP's narrow frontiers")
	return nil
}

func runAblationCacheAuto(c *Context, w io.Writer) error {
	p, err := c.Partitioned("eu2015-sim")
	if err != nil {
		return err
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "capacity\tpolicy\tchosen/fixed-mode\tavg-step-ms\thit-ratio")
	for _, frac := range []struct {
		label string
		div   int64
	}{{"tiles/8", 8}, {"tiles/3", 3}, {"tiles x1.1", 0}} {
		capacity := p.TotalTileBytes() + p.TotalTileBytes()/10
		if frac.div > 0 {
			capacity = p.TotalTileBytes() / frac.div
		}
		type variant struct {
			label string
			mut   func(cfg *core.Config)
		}
		variants := []variant{
			{"auto", func(cfg *core.Config) { cfg.CacheAuto = true }},
			{"fixed-raw", func(cfg *core.Config) { cfg.CacheAuto = false; cfg.CacheMode = 0 }},
		}
		for _, v := range variants {
			res, err := c.runGraphH("eu2015-sim", apps.PageRank{}, 3, func(cfg *core.Config) {
				cfg.CacheCapacity = capacity
				v.mut(cfg)
			})
			if err != nil {
				return err
			}
			var hits, misses int64
			for _, sv := range res.Servers {
				hits += sv.Cache.Hits
				misses += sv.Cache.Misses
			}
			hr := 0.0
			if hits+misses > 0 {
				hr = float64(hits) / float64(hits+misses)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.2f\n", frac.label, v.label,
				res.Servers[0].CacheMode, ms(res.AvgStepDuration()), hr)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "expectation (§IV-B): under tight capacity the auto rule picks a compressed mode and beats fixed-raw; with ample capacity it picks raw and avoids decompression")
	return nil
}

func runAblationTileSize(c *Context, w io.Writer) error {
	el, err := c.Dataset("uk2007-sim")
	if err != nil {
		return err
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "tile-size-S\ttiles\tmax/min-edge-ratio\tavg-step-ms")
	for _, s := range []int{el.NumEdges() / 4, el.NumEdges() / 16, el.NumEdges() / 64, el.NumEdges() / 256} {
		p, err := tile.Split(el, tile.Options{TileSize: s})
		if err != nil {
			return err
		}
		minE, maxE := p.Tiles[0].NumEdges(), p.Tiles[0].NumEdges()
		for _, t := range p.Tiles {
			if t.NumEdges() < minE {
				minE = t.NumEdges()
			}
			if t.NumEdges() > maxE {
				maxE = t.NumEdges()
			}
		}
		cfg := c.graphhConfig(c.Servers)
		res, err := core.New(cfg).Run(core.Input{Partition: p}, apps.PageRank{})
		if err != nil {
			return err
		}
		ratio := float64(maxE) / float64(minE+1)
		fmt.Fprintf(tw, "%d\t%d\t%.2f\t%s\n", s, p.NumTiles(), ratio, ms(res.AvgStepDuration()))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "expectation (§III-B-3): very large S starves workers of parallelism; very small S is bounded by high-degree vertices and adds per-tile overhead — the paper picks S between 15M and 25M edges at production scale")
	return nil
}
