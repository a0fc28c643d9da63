package main

import (
	"fmt"
	"math"
	"time"

	graphh "repro"
	"repro/api"
	"repro/internal/graph"
)

// servers and workers are rule (2) of the README: every simulated cluster
// is 4 servers × 1 worker, so that when the hypervisor takes a vCPU the Go
// scheduler still has other servers' goroutines to run on the one left.
const (
	servers = 4
	workers = 1
)

// jobSpec is what one client asks for in every unit of work.
type jobSpec struct {
	program    api.ProgramSpec
	supersteps int // MaxSupersteps; the program may converge earlier
	// oracle computes the sequential reference; tol is the largest absolute
	// difference the first job of a session may show against it (0 = exact).
	oracle func(g *graphh.Graph) []float64
	tol    float64
}

// workload is one set of inputs the benchmark runs. Sizes are frozen: the
// baseline in BENCHMARK.json is comparable only at exactly these.
type workload struct {
	name, why string
	sizes     map[string]int
	graph     func(seed uint64) *graphh.Graph
	numTiles  int // 0 = tileSize is given
	tileSize  int
	options   func(p *graphh.Partitioned) graphh.Options
	// clients has one entry for an in-process Session.Submit loop and two
	// for svc-mixed, whose jobs go through service/api/client over HTTP.
	clients []jobSpec
	service bool
	// guard checks, from one warm unit's own counters, that the workload is
	// still in the regime it was chosen for; windowGuard, where set, does
	// the same over all units of a run.
	guard       func(u *unit) error
	windowGuard func(us []*unit, jobSeconds float64) error
}

func pageRank(supersteps int) jobSpec {
	return jobSpec{
		program:    api.ProgramSpec{Name: api.ProgramPageRank},
		supersteps: supersteps,
		oracle:     func(g *graphh.Graph) []float64 { return graph.RefPageRank(g, supersteps) },
		tol:        1e-12,
	}
}

func sssp(source uint32, supersteps int) jobSpec {
	return jobSpec{
		program:    api.ProgramSpec{Name: api.ProgramSSSP, Source: source},
		supersteps: supersteps,
		oracle:     func(g *graphh.Graph) []float64 { return graph.RefSSSP(g, source) },
		tol:        1e-9,
	}
}

func wcc(supersteps int) jobSpec {
	return jobSpec{
		program:    api.ProgramSpec{Name: api.ProgramWCC},
		supersteps: supersteps,
		oracle: func(g *graphh.Graph) []float64 {
			labels := graph.RefWCC(g)
			out := make([]float64, len(labels))
			for i, l := range labels {
				out[i] = float64(l)
			}
			return out
		},
	}
}

// scale holds every size the workloads are built from, so that -smoke is
// the same four workloads on tiny graphs rather than a second code path.
type scale struct {
	webVertices   uint32
	webEdges      int
	webTiles      int
	memSupersteps int
	oocSupersteps int
	gridSide      uint32
	gridTileSize  int
	gridMinSteps  int
	svcVertices   uint32
	svcEdges      int
	svcTiles      int
	svcSupersteps int
	// timing turns on the two guards that depend on how fast jobs run
	// (the modelled disk's share of pr-ooc, the overlap of svc-mixed's jobs);
	// tiny smoke jobs finish too quickly for either to hold reliably.
	timing bool
}

var fullScale = scale{
	webVertices: 67_000, webEdges: 2_750_000, webTiles: 64,
	memSupersteps: 20, oocSupersteps: 12,
	gridSide: 200, gridTileSize: 4096, gridMinSteps: 300,
	svcVertices: 60_000, svcEdges: 1_400_000, svcTiles: 32, svcSupersteps: 10, timing: true,
}

var smokeScale = scale{
	webVertices: 3_000, webEdges: 60_000, webTiles: 32,
	memSupersteps: 6, oocSupersteps: 9,
	gridSide: 60, gridTileSize: 1024, gridMinSteps: 100,
	svcVertices: 6_000, svcEdges: 80_000, svcTiles: 16, svcSupersteps: 30,
}

const (
	oocDiskBandwidth = 64 << 20 // bytes/s, reads and writes
	oocDiskLatency   = 2 * time.Millisecond
)

// oocCacheMode pins pr-ooc's cache codec. Left on auto, a 25% budget makes
// the engine choose zlib and spend 2.5 CPU-seconds per job compressing
// tiles it then declines to admit, which makes the job CPU-bound, not
// disk-bound (README.md, "pr-ooc and the automatic cache mode").
var oocCacheMode = graphh.CodecSnappy

func workloads(sc scale) []*workload {
	web := func(seed uint64) *graphh.Graph {
		return graphh.GenerateRMAT(sc.webVertices, sc.webEdges, seed)
	}
	return []*workload{
		{
			name: "pr-mem",
			why:  "PageRank on a cache-resident web graph over loopback TCP: gather/apply, comm, compress and cluster do the work, disk and cache none",
			sizes: map[string]int{"vertices": int(sc.webVertices), "edges": sc.webEdges, "tiles": sc.webTiles,
				"supersteps": sc.memSupersteps},
			graph:    web,
			numTiles: sc.webTiles,
			options: func(*graphh.Partitioned) graphh.Options {
				return graphh.Options{Transport: graphh.TransportTCP, DisableRebalance: true}
			},
			clients: []jobSpec{pageRank(sc.memSupersteps)},
			// A migrated tile is read once by its donor and once by its new
			// owner, who misses it once; nothing else may touch the disk
			// once the cache is warm.
			guard: func(u *unit) error {
				c := u.counters
				if c["cache.misses"] > c["core.migrated_tiles"] || c["disk.read_ops"] > 2*c["core.migrated_tiles"] {
					return fmt.Errorf("a warm job missed the cache %.0f times and read the disk %.0f times, but only %.0f tiles migrated",
						c["cache.misses"], c["disk.read_ops"], c["core.migrated_tiles"])
				}
				return nil
			},
		},
		{
			name: "pr-ooc",
			why:  "PageRank with a 25% cache on a 64 MiB/s + 2 ms/op modelled disk, checkpointing: disk, cache, prefetcher and csr decode set the time (GraphD's regime)",
			sizes: map[string]int{"vertices": int(sc.webVertices), "edges": sc.webEdges, "tiles": sc.webTiles,
				"supersteps": sc.oocSupersteps, "cache_pct": 25, "disk_mib_s": oocDiskBandwidth >> 20,
				"disk_latency_us": int(oocDiskLatency / time.Microsecond), "checkpoint_every": 4},
			graph:    web,
			numTiles: sc.webTiles,
			options: func(p *graphh.Partitioned) graphh.Options {
				return graphh.Options{
					DiskReadBandwidth:  oocDiskBandwidth,
					DiskWriteBandwidth: oocDiskBandwidth,
					DiskReadLatency:    oocDiskLatency,
					CacheCapacity:      p.TotalTileBytes() / servers / 4,
					CheckpointEvery:    4,
					CacheMode:          &oocCacheMode,
				}
			},
			clients: []jobSpec{pageRank(sc.oocSupersteps)},
			guard: func(u *unit) error {
				c := u.counters
				switch {
				case c["cache.hit_ratio"] < 0.10 || c["cache.hit_ratio"] > 0.40:
					return fmt.Errorf("cache.hit_ratio %.3f outside [0.10, 0.40]", c["cache.hit_ratio"])
				case c["core.prefetch_hits"] <= 0:
					return fmt.Errorf("core.prefetch_hits = %.0f, want > 0", c["core.prefetch_hits"])
				case c["core.checkpoints"] < 2:
					return fmt.Errorf("core.checkpoints = %.0f per job, want >= 2", c["core.checkpoints"])
				case u.residency != "cached":
					return fmt.Errorf("residency %q, want cached", u.residency)
				}
				return nil
			},
			// Like every timing, the device's share is judged against the
			// window's fast-decile job, not against each job.
			windowGuard: func(us []*unit, jobSeconds float64) error {
				share := us[0].counters["disk.modelled_ms"] / 1000 / jobSeconds
				if sc.timing && share < 0.60 {
					return fmt.Errorf("the modelled device explains %.0f%% of job_s, want >= 60%%", 100*share)
				}
				return nil
			},
		},
		{
			name:  "sssp-grid",
			why:   "SSSP to convergence on a weighted grid: hundreds of sparse ~1 ms supersteps, so per-step and per-tile fixed cost (barrier, flush, sweep) sets the time",
			sizes: map[string]int{"grid_side": int(sc.gridSide), "tile_size": sc.gridTileSize, "max_weight": 10},
			graph: func(seed uint64) *graphh.Graph {
				return graph.AttachWeights(graph.GenerateGrid(sc.gridSide, sc.gridSide).Symmetrize(), 10, seed)
			},
			tileSize: sc.gridTileSize,
			options: func(*graphh.Partitioned) graphh.Options {
				return graphh.Options{DisableRebalance: true}
			},
			clients: []jobSpec{sssp(0, 4*int(sc.gridSide)*int(sc.gridSide))},
			guard: func(u *unit) error {
				c := u.counters
				switch {
				case c["core.supersteps"] < float64(sc.gridMinSteps):
					return fmt.Errorf("core.supersteps = %.0f, want >= %d", c["core.supersteps"], sc.gridMinSteps)
				case c["comm.dense_msgs"] != 0:
					return fmt.Errorf("comm.dense_msgs = %.0f, want 0", c["comm.dense_msgs"])
				case c["core.skipped_tiles"] <= 0:
					return fmt.Errorf("core.skipped_tiles = %.0f, want > 0", c["core.skipped_tiles"])
				}
				return nil
			},
		},
		{
			name: "svc-mixed",
			why:  "two closed-loop HTTP clients (PageRank + WCC) share a 2-job session through service/api/client: the only workload on the multi-tenant engine path",
			sizes: map[string]int{"vertices": int(sc.svcVertices), "edges": sc.svcEdges, "tiles": sc.svcTiles,
				"supersteps": sc.svcSupersteps, "clients": 2, "concurrent_jobs": 2},
			graph: func(seed uint64) *graphh.Graph {
				return graphh.GenerateRMAT(sc.svcVertices, sc.svcEdges, seed).Symmetrize()
			},
			numTiles: sc.svcTiles,
			options: func(*graphh.Partitioned) graphh.Options {
				return graphh.Options{MaxConcurrentJobs: 2}
			},
			clients: []jobSpec{pageRank(sc.svcSupersteps), wcc(100)},
			service: true,
			guard: func(u *unit) error {
				if u.counters["service.jobs_rejected"] != 0 {
					return fmt.Errorf("service.jobs_rejected = %.0f, want 0", u.counters["service.jobs_rejected"])
				}
				return nil
			},
			// Under steal a short WCC job now and then ends before the
			// PageRank job's first superstep does, so overlap is asked of
			// four rounds in five; a session that ran its jobs one after
			// the other would overlap in none.
			windowGuard: func(us []*unit, _ float64) error {
				overlapped := 0
				for _, u := range us {
					if u.overlap {
						overlapped++
					}
				}
				if sc.timing && 5*overlapped < 4*len(us) {
					return fmt.Errorf("the two jobs ran at the same time in only %d of %d rounds", overlapped, len(us))
				}
				return nil
			},
		},
	}
}

func workloadByName(ws []*workload, name string) (*workload, error) {
	for _, w := range ws {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// partitionOptions turns the workload's tile count or tile size into
// stage-one options for this graph.
func (w *workload) partitionOptions(g *graphh.Graph) graphh.PartitionOptions {
	if w.numTiles > 0 {
		return graphh.PartitionOptions{TileSize: (g.NumEdges() + w.numTiles - 1) / w.numTiles}
	}
	return graphh.PartitionOptions{TileSize: w.tileSize}
}

// sessionOptions completes the workload's options with the parts every
// workload shares.
func (w *workload) sessionOptions(p *graphh.Partitioned, workDir string) graphh.Options {
	o := w.options(p)
	o.Servers, o.Workers, o.WorkDir = servers, workers, workDir
	return o
}

// checkOracle compares a session's first result with the sequential
// reference: within tol where the reference is finite, +Inf where it is not.
func checkOracle(got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, oracle has %d", len(got), len(want))
	}
	for v := range want {
		if math.IsInf(want[v], 1) != math.IsInf(got[v], 1) || math.Abs(got[v]-want[v]) > tol {
			return fmt.Errorf("vertex %d = %v, oracle says %v (tolerance %g)", v, got[v], want[v], tol)
		}
	}
	return nil
}

// checkSame reports the first vertex at which two results differ bit for
// bit: every job of a session after the first must repeat it exactly.
func checkSame(got, first []float64) error {
	if len(got) != len(first) {
		return fmt.Errorf("%d values, the session's first job had %d", len(got), len(first))
	}
	for v := range first {
		if math.Float64bits(got[v]) != math.Float64bits(first[v]) {
			return fmt.Errorf("vertex %d = %v, the session's first job said %v", v, got[v], first[v])
		}
	}
	return nil
}
