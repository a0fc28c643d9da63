package core_test

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/compress"
	. "repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/graph"
	"repro/internal/spe"
	"repro/internal/tile"
)

// runOn partitions el and runs prog with the given config tweaks.
func runOn(t *testing.T, el *graph.EdgeList, prog Program, mutate func(*Config)) *Result {
	t.Helper()
	p, err := tile.Split(el, tile.Options{TileSize: el.NumEdges()/7 + 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(3)
	cfg.WorkDir = t.TempDir()
	cfg.MaxSupersteps = 200
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := New(cfg).Run(Input{Partition: p}, prog)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func wantClose(t *testing.T, got, want []float64, tol float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for v := range want {
		g, w := got[v], want[v]
		if math.IsInf(w, 1) {
			if !math.IsInf(g, 1) {
				t.Fatalf("%s: vertex %d = %g, want +Inf", label, v, g)
			}
			continue
		}
		if math.Abs(g-w) > tol {
			t.Fatalf("%s: vertex %d = %.17g, want %.17g", label, v, g, w)
		}
	}
}

func TestPageRankMatchesReference(t *testing.T) {
	el := graph.GenerateRMAT(graph.DefaultRMAT(), 400, 4000, 71)
	const steps = 15
	want := graph.RefPageRank(el, steps)
	res := runOn(t, el, apps.PageRank{}, func(c *Config) { c.MaxSupersteps = steps })
	wantClose(t, res.Values, want, 1e-12, "pagerank")
	if res.Supersteps != steps {
		t.Fatalf("ran %d supersteps, want %d", res.Supersteps, steps)
	}
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	el := graph.AttachWeights(graph.GenerateRMAT(graph.DefaultRMAT(), 300, 3000, 5), 4, 9)
	want := graph.RefSSSP(el, 0)
	res := runOn(t, el, apps.SSSP{Source: 0}, nil)
	wantClose(t, res.Values, want, 1e-9, "sssp")
	if !res.Converged {
		t.Fatal("SSSP did not converge")
	}
}

func TestBFSMatchesReference(t *testing.T) {
	el := graph.GenerateRMAT(graph.DefaultRMAT(), 300, 2500, 13)
	want := graph.RefBFS(el, 2)
	res := runOn(t, el, apps.BFS{Source: 2}, nil)
	wantClose(t, res.Values, want, 0, "bfs")
}

func TestWCCMatchesUnionFind(t *testing.T) {
	el := graph.GenerateUniform(200, 400, 3) // sparse: several components
	sym := el.Symmetrize()
	want := graph.RefWCC(el)
	res := runOn(t, sym, apps.WCC{}, nil)
	for v := range want {
		if uint32(res.Values[v]) != want[v] {
			t.Fatalf("wcc: vertex %d labelled %g, want %d", v, res.Values[v], want[v])
		}
	}
}

func TestDegreeSumVisitsEveryEdgeOnce(t *testing.T) {
	el := graph.GenerateRMAT(graph.DefaultRMAT(), 256, 2048, 17)
	in, _ := el.Degrees()
	res := runOn(t, el, apps.DegreeSum{}, nil)
	for v := range in {
		if res.Values[v] != float64(in[v]) {
			t.Fatalf("vertex %d saw %g in-edges, want %d", v, res.Values[v], in[v])
		}
	}
}

func TestChainConvergence(t *testing.T) {
	// SSSP on a chain needs exactly n-1 value-changing supersteps plus one
	// quiet step to detect convergence.
	el := graph.GenerateChain(20)
	res := runOn(t, el, apps.SSSP{Source: 0}, func(c *Config) { c.MaxSupersteps = 100 })
	if !res.Converged {
		t.Fatal("chain SSSP did not converge")
	}
	if res.Supersteps != 20 {
		t.Fatalf("chain(20) took %d supersteps, want 20", res.Supersteps)
	}
	for v := 0; v < 20; v++ {
		if res.Values[v] != float64(v) {
			t.Fatalf("dist[%d] = %g", v, res.Values[v])
		}
	}
}

func TestServerCountInvariance(t *testing.T) {
	// The same program must produce identical results on 1, 2, 4, 7 servers.
	el := graph.GenerateRMAT(graph.DefaultRMAT(), 350, 3500, 23)
	var base []float64
	for _, n := range []int{1, 2, 4, 7} {
		res := runOn(t, el, apps.PageRank{}, func(c *Config) {
			c.NumServers = n
			c.MaxSupersteps = 10
		})
		if base == nil {
			base = res.Values
			continue
		}
		wantClose(t, res.Values, base, 0, "server-count")
	}
}

func TestReplicationPolicyEquivalence(t *testing.T) {
	el := graph.AttachWeights(graph.GenerateRMAT(graph.DefaultRMAT(), 250, 2000, 31), 3, 7)
	aa := runOn(t, el, apps.SSSP{Source: 1}, func(c *Config) { c.Replication = AllInAll })
	od := runOn(t, el, apps.SSSP{Source: 1}, func(c *Config) { c.Replication = OnDemand })
	wantClose(t, od.Values, aa.Values, 0, "replication-policy")
	// On-Demand must hold at most as many replicas as All-in-All.
	for i := range od.Servers {
		if od.Servers[i].VertexSlots > aa.Servers[i].VertexSlots {
			t.Fatalf("server %d: OD slots %d > AA slots %d", i,
				od.Servers[i].VertexSlots, aa.Servers[i].VertexSlots)
		}
	}
}

func TestCacheModesEquivalence(t *testing.T) {
	el := graph.GenerateRMAT(graph.DefaultRMAT(), 300, 3000, 37)
	var base []float64
	for _, mode := range compress.Modes {
		res := runOn(t, el, apps.PageRank{}, func(c *Config) {
			c.CacheAuto = false
			c.CacheMode = mode
			c.MaxSupersteps = 8
		})
		if base == nil {
			base = res.Values
			continue
		}
		wantClose(t, res.Values, base, 0, "cache-mode-"+mode.String())
	}
}

func TestCacheDisabledStillCorrect(t *testing.T) {
	el := graph.GenerateRMAT(graph.DefaultRMAT(), 200, 1500, 41)
	want := graph.RefPageRank(el, 6)
	res := runOn(t, el, apps.PageRank{}, func(c *Config) {
		c.CacheCapacity = -1 // disabled: every load hits disk
		c.MaxSupersteps = 6
	})
	wantClose(t, res.Values, want, 1e-12, "no-cache")
	// With the cache disabled every tile access is a miss and disk reads
	// must outnumber one pass over the tiles.
	var hits int64
	var reads int64
	for _, sv := range res.Servers {
		hits += sv.Cache.Hits
		reads += sv.Disk.ReadOps
	}
	if hits != 0 {
		t.Fatalf("cache disabled but %d hits recorded", hits)
	}
	if reads == 0 {
		t.Fatal("no disk reads with cache disabled")
	}
}

func TestCommModesEquivalence(t *testing.T) {
	el := graph.GenerateRMAT(graph.DefaultRMAT(), 300, 2500, 43)
	var base []float64
	for _, choice := range []comm.ModeChoice{comm.Auto, comm.ForceDense, comm.ForceSparse} {
		res := runOn(t, el, apps.PageRank{}, func(c *Config) {
			c.Comm = choice
			c.MaxSupersteps = 8
		})
		if base == nil {
			base = res.Values
			continue
		}
		wantClose(t, res.Values, base, 0, "comm-mode")
	}
}

func TestMsgCodecsEquivalence(t *testing.T) {
	el := graph.GenerateRMAT(graph.DefaultRMAT(), 300, 2500, 47)
	var base []float64
	for _, codec := range compress.Modes {
		res := runOn(t, el, apps.PageRank{}, func(c *Config) {
			c.MsgCodec = &codec
			c.MaxSupersteps = 8
		})
		if base == nil {
			base = res.Values
			continue
		}
		wantClose(t, res.Values, base, 0, "codec-"+codec.String())
	}
}

func TestBloomSkipEquivalenceAndEffect(t *testing.T) {
	// A long chain keeps the SSSP frontier tiny: most tiles are skippable.
	el := graph.GenerateChain(2000)
	on := runOn(t, el, apps.SSSP{Source: 0}, func(c *Config) {
		c.MaxSupersteps = 3000
		c.BloomSkip = true
	})
	off := runOn(t, el, apps.SSSP{Source: 0}, func(c *Config) {
		c.MaxSupersteps = 3000
		c.BloomSkip = false
	})
	wantClose(t, on.Values, off.Values, 0, "bloom-skip")
	var skipOn, skipOff int
	for _, s := range on.Steps {
		skipOn += s.SkippedTiles
	}
	for _, s := range off.Steps {
		skipOff += s.SkippedTiles
	}
	if skipOn == 0 {
		t.Fatal("bloom skip never skipped a tile on a chain frontier")
	}
	if skipOff != 0 {
		t.Fatal("tiles skipped with BloomSkip disabled")
	}
}

func TestTCPTransportEquivalence(t *testing.T) {
	el := graph.GenerateRMAT(graph.DefaultRMAT(), 250, 2000, 53)
	inproc := runOn(t, el, apps.PageRank{}, func(c *Config) { c.MaxSupersteps = 6 })
	tcp := runOn(t, el, apps.PageRank{}, func(c *Config) {
		c.MaxSupersteps = 6
		c.Transport = cluster.TCP
	})
	wantClose(t, tcp.Values, inproc.Values, 0, "tcp-transport")
	var sent int64
	for _, sv := range tcp.Servers {
		sent += sv.BytesSent
	}
	if sent == 0 {
		t.Fatal("no network traffic recorded over TCP")
	}
}

func TestDFSPipeline(t *testing.T) {
	// Full production path: edge list → SPE → DFS tiles → MPE.
	el := graph.GenerateRMAT(graph.DefaultRMAT(), 300, 2500, 59)
	el.Name = "pipeline"
	base := t.TempDir()
	d, err := dfs.New([]string{filepath.Join(base, "a"), filepath.Join(base, "b")},
		dfs.Config{Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng := spe.New(d, 4)
	man, err := eng.PreprocessEdgeList(el, "out/pipeline", tile.Options{TileSize: 400})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(3)
	cfg.WorkDir = t.TempDir()
	cfg.MaxSupersteps = 8
	res, err := New(cfg).Run(Input{SPE: eng, Manifest: man}, apps.PageRank{})
	if err != nil {
		t.Fatal(err)
	}
	want := graph.RefPageRank(el, 8)
	wantClose(t, res.Values, want, 1e-12, "dfs-pipeline")
}

func TestStatsAccounting(t *testing.T) {
	el := graph.GenerateRMAT(graph.DefaultRMAT(), 400, 4000, 61)
	res := runOn(t, el, apps.PageRank{}, func(c *Config) { c.MaxSupersteps = 5 })
	if len(res.Steps) != 5 {
		t.Fatalf("%d step records, want 5", len(res.Steps))
	}
	if res.Steps[0].Updated == 0 {
		t.Fatal("first PR superstep should update vertices")
	}
	if res.TotalWireBytes() == 0 {
		t.Fatal("no wire traffic recorded in a 3-server run")
	}
	if res.PeakMemoryBytes() <= 0 || res.TotalMemoryBytes() < res.PeakMemoryBytes() {
		t.Fatalf("memory accounting wrong: peak %d total %d",
			res.PeakMemoryBytes(), res.TotalMemoryBytes())
	}
	if res.AvgStepDuration() <= 0 {
		t.Fatal("no step durations recorded")
	}
	for _, sv := range res.Servers {
		if sv.VertexSlots != int(el.NumVertices) {
			t.Fatalf("AA server holds %d slots, want %d", sv.VertexSlots, el.NumVertices)
		}
	}
}

func TestMaxSuperstepsBound(t *testing.T) {
	// A skewed graph keeps PageRank moving well past 3 supersteps.
	el := graph.GenerateRMAT(graph.DefaultRMAT(), 100, 800, 79)
	res := runOn(t, el, apps.PageRank{}, func(c *Config) { c.MaxSupersteps = 3 })
	if res.Supersteps != 3 {
		t.Fatalf("ran %d supersteps, want 3", res.Supersteps)
	}
	if res.Converged {
		t.Fatal("3-step PR run should not report convergence")
	}
}

func TestPageRankOnCycleConvergesImmediately(t *testing.T) {
	// On a regular cycle the initial 1/|V| vector is already the fixed
	// point, so the first superstep updates nothing and the run converges.
	el := graph.GenerateCycle(50)
	res := runOn(t, el, apps.PageRank{}, nil)
	if !res.Converged || res.Supersteps != 1 {
		t.Fatalf("cycle PR: converged=%v after %d steps, want immediate convergence",
			res.Converged, res.Supersteps)
	}
}

func TestInvalidInput(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.WorkDir = t.TempDir()
	if _, err := New(cfg).Run(Input{}, apps.PageRank{}); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestMoreServersThanTiles(t *testing.T) {
	el := graph.GenerateUniform(50, 200, 67)
	p, err := tile.Split(el, tile.Options{TileSize: 1 << 20}) // one tile
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(4) // 4 servers, 1 tile
	cfg.WorkDir = t.TempDir()
	cfg.MaxSupersteps = 5
	res, err := New(cfg).Run(Input{Partition: p}, apps.PageRank{})
	if err != nil {
		t.Fatal(err)
	}
	want := graph.RefPageRank(el, 5)
	wantClose(t, res.Values, want, 1e-12, "more-servers-than-tiles")
}

func TestSingleServerSingleWorker(t *testing.T) {
	el := graph.GenerateRMAT(graph.DefaultRMAT(), 200, 1500, 73)
	res := runOn(t, el, apps.PageRank{}, func(c *Config) {
		c.NumServers = 1
		c.WorkersPerServer = 1
		c.MaxSupersteps = 6
	})
	want := graph.RefPageRank(el, 6)
	wantClose(t, res.Values, want, 1e-12, "1x1")
	if res.TotalWireBytes() != 0 {
		t.Fatal("single server should generate no network traffic")
	}
}
