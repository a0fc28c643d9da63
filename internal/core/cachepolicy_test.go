package core

// End-to-end pins for the edge-cache eviction policies: results must be
// bit-identical regardless of policy (the cache serves the same tile bytes
// either way), both policies must hold the cached fraction of a cyclic sweep
// at constrained capacity, and the auto selector must pick CLOCK
// exactly when the capacity cannot hold the tile working set. End-to-end
// *time* per policy is tracked in PERF.md (the Figure 7(b) sweep), not
// asserted here — wall-clock comparisons are too noisy for CI.

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/compress"
	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/tile"
)

// policyRunConfig builds a deterministic constrained-memory deployment:
// one server, one worker (so the cache access order is the tile order),
// raw cache mode, capacity at 50% of the decoded tile working set.
func policyRunConfig(p *tile.Partition, policy cache.Policy) Config {
	cfg := DefaultConfig(1)
	cfg.WorkersPerServer = 1
	cfg.MaxSupersteps = 8
	cfg.CacheAuto = false
	cfg.CacheMode = compress.None
	cfg.CachePolicyAuto = false
	cfg.CachePolicy = policy
	cfg.CacheCapacity = p.TotalTileBytes() / 2
	return cfg
}

// TestCachePolicyDeterminismAndHitRatio runs the same PageRank-like
// workload under both eviction policies at 50% cache capacity and pins:
// (1) bit-identical result values — the policy may only change where tile
// bytes are read from, never what they contain; (2) after the warm-up sweep
// each policy's hit ratio is the cached fraction costmodel.CyclicHitRatio
// predicts, to within one tile; (3) CLOCK matches the paper's AdmitNoEvict
// resident-set behaviour.
func TestCachePolicyDeterminismAndHitRatio(t *testing.T) {
	el := graph.GenerateRMAT(graph.DefaultRMAT(), 2000, 20_000, 41)
	p, err := tile.Split(el, tile.Options{TileSize: el.NumEdges()/8 + 1})
	if err != nil {
		t.Fatal(err)
	}

	results := map[cache.Policy]*Result{}
	for _, policy := range cache.Policies {
		res, err := New(policyRunConfig(p, policy)).Run(Input{Partition: p}, smoothProg{})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if got := res.Servers[0].CachePolicy; got != policy {
			t.Fatalf("run configured with %s reported policy %s", policy, got)
		}
		results[policy] = res
	}

	ref, got := results[cache.AdmitNoEvict], results[cache.Clock]
	if len(got.Values) != len(ref.Values) {
		t.Fatalf("clock: %d values, want %d", len(got.Values), len(ref.Values))
	}
	for v := range ref.Values {
		if got.Values[v] != ref.Values[v] {
			t.Fatalf("clock: value of vertex %d differs from admit-no-evict: %g != %g",
				v, got.Values[v], ref.Values[v])
		}
	}

	hit := func(p cache.Policy) float64 { return results[p].Servers[0].Cache.HitRatio() }
	model := costmodel.CyclicHitRatio(p.TotalTileBytes(), p.TotalTileBytes()/2)
	for _, policy := range cache.Policies {
		// The first sweep misses every tile; every later one hits the
		// resident set.
		cs := results[policy].Servers[0].Cache
		steady := float64(cs.Hits) / float64(cs.Hits+cs.Misses-int64(p.NumTiles()))
		if d := steady - model; d > 1/float64(p.NumTiles()) || -d > 1/float64(p.NumTiles()) {
			t.Fatalf("%s: steady hit ratio %.3f, want the cyclic model's %.3f within one of %d tiles",
				policy, steady, model, p.NumTiles())
		}
	}
	// CLOCK degenerates to AdmitNoEvict's stable resident set when the
	// working set does not shift; allow a small slack for admission-order
	// effects.
	if hit(cache.Clock) < hit(cache.AdmitNoEvict)*0.9 {
		t.Fatalf("clock hit ratio %.3f fell below admit-no-evict %.3f",
			hit(cache.Clock), hit(cache.AdmitNoEvict))
	}
	if ev := results[cache.Clock].Servers[0].Cache.Evictions; ev != 0 {
		t.Fatalf("clock evicted %d tiles from a stable working set", ev)
	}
}

// TestCachePolicyAutoSelection pins the costmodel-driven default: CLOCK
// under constrained capacity, the paper's AdmitNoEvict when everything
// fits (no eviction ever happens, the settled fast path is cheapest).
func TestCachePolicyAutoSelection(t *testing.T) {
	el := graph.GenerateRMAT(graph.DefaultRMAT(), 1000, 8000, 7)
	p, err := tile.Split(el, tile.Options{TileSize: el.NumEdges()/4 + 1})
	if err != nil {
		t.Fatal(err)
	}
	run := func(capacity int64) cache.Policy {
		cfg := DefaultConfig(1)
		cfg.WorkersPerServer = 1
		cfg.MaxSupersteps = 2
		cfg.CacheAuto = false
		cfg.CacheMode = compress.None
		cfg.CacheCapacity = capacity
		res, err := New(cfg).Run(Input{Partition: p}, smoothProg{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Servers[0].CachePolicy
	}
	if got := run(p.TotalTileBytes() / 2); got != cache.Clock {
		t.Fatalf("auto policy at 50%% capacity = %s, want clock", got)
	}
	if got := run(0); got != cache.AdmitNoEvict {
		t.Fatalf("auto policy with unlimited capacity = %s, want admit-no-evict", got)
	}
}
