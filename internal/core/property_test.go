package core_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/compress"
	. "repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tile"
)

// TestPropertyEngineMatchesOracleUnderRandomConfigs is the master property
// test: random graphs × random engine configurations must always reproduce
// the sequential oracles. Any divergence in partitioning, caching,
// communication encoding, replication policy or scheduling shows up here.
func TestPropertyEngineMatchesOracleUnderRandomConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized config sweep skipped in -short mode")
	}
	const trials = 12
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0xfeed))

		nv := rng.Uint32N(400) + 30
		ne := int(rng.Uint32N(4000)) + 100
		el := graph.GenerateRMAT(graph.DefaultRMAT(), nv, ne, uint64(trial)*7+1)
		weighted := rng.Uint32N(2) == 0
		if weighted {
			el = graph.AttachWeights(el, 5, uint64(trial))
		}

		cfg := DefaultConfig(int(rng.Uint32N(5)) + 1)
		cfg.WorkDir = t.TempDir()
		cfg.WorkersPerServer = int(rng.Uint32N(4)) + 1
		msgCodec := compress.Modes[rng.Uint32N(4)]
		cfg.MsgCodec = &msgCodec
		cfg.Comm = []comm.ModeChoice{comm.Auto, comm.ForceDense, comm.ForceSparse}[rng.Uint32N(3)]
		cfg.CacheAuto = rng.Uint32N(2) == 0
		if !cfg.CacheAuto {
			cfg.CacheMode = compress.Modes[rng.Uint32N(4)]
		}
		switch rng.Uint32N(3) {
		case 0:
			cfg.CacheCapacity = -1 // disabled
		case 1:
			cfg.CacheCapacity = int64(rng.Uint32N(1 << 16)) // tight
		} // else unlimited
		if rng.Uint32N(2) == 0 {
			cfg.Replication = OnDemand
		}
		cfg.BloomSkip = rng.Uint32N(2) == 0
		if rng.Uint32N(4) == 0 {
			cfg.Transport = cluster.TCP
		}

		p, err := tile.Split(el, tile.Options{TileSize: int(rng.Uint32N(1000)) + 50})
		if err != nil {
			t.Fatal(err)
		}

		// PageRank for a fixed horizon.
		steps := int(rng.Uint32N(8)) + 2
		cfgPR := cfg
		cfgPR.MaxSupersteps = steps
		resPR, err := New(cfgPR).Run(Input{Partition: p}, apps.PageRank{})
		if err != nil {
			t.Fatalf("trial %d PR: %v (cfg %+v)", trial, err, cfg)
		}
		wantPR := graph.RefPageRank(el, steps)
		for v := range wantPR {
			if math.Abs(resPR.Values[v]-wantPR[v]) > 1e-12 {
				t.Fatalf("trial %d PR vertex %d: %.17g vs %.17g (cfg %+v)",
					trial, v, resPR.Values[v], wantPR[v], cfg)
			}
		}

		// SSSP to convergence.
		cfgSSSP := cfg
		cfgSSSP.MaxSupersteps = 500
		src := rng.Uint32N(nv)
		resSSSP, err := New(cfgSSSP).Run(Input{Partition: p}, apps.SSSP{Source: src})
		if err != nil {
			t.Fatalf("trial %d SSSP: %v", trial, err)
		}
		wantSSSP := graph.RefSSSP(el, src)
		for v := range wantSSSP {
			if math.IsInf(wantSSSP[v], 1) != math.IsInf(resSSSP.Values[v], 1) {
				t.Fatalf("trial %d SSSP vertex %d reachability: %g vs %g (cfg %+v)",
					trial, v, resSSSP.Values[v], wantSSSP[v], cfg)
			}
			if !math.IsInf(wantSSSP[v], 1) && math.Abs(resSSSP.Values[v]-wantSSSP[v]) > 1e-9 {
				t.Fatalf("trial %d SSSP vertex %d: %g vs %g (cfg %+v)",
					trial, v, resSSSP.Values[v], wantSSSP[v], cfg)
			}
		}
	}
}
