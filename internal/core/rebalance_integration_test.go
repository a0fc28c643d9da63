package core_test

// End-to-end tests of the dynamic tile rebalancer: migrations forced
// through the plan hook must leave results bit-identical on every
// transport, the auto mode must actually relieve a skewed assignment, and
// a migration racing an aborting cluster must surface the root cause
// instead of hanging.

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	. "repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/tile"
)

// rotateHook returns a plan hook that migrates one tile every superstep,
// rotating ownership: tile (step mod numTiles) moves from its current
// owner to the next server. Deterministic, transport-independent churn.
func rotateHook(numTiles int) func(step int, costs [][]costmodel.TileCost) []costmodel.Move {
	return func(step int, costs [][]costmodel.TileCost) []costmodel.Move {
		target := step % numTiles
		for sv, tiles := range costs {
			for _, c := range tiles {
				if c.ID == target {
					return []costmodel.Move{{Tile: target, From: sv, To: (sv + 1) % len(costs)}}
				}
			}
		}
		return nil
	}
}

// TestRebalanceDeterminism pins the bit-identical-results contract of the
// rebalancer across rebalance off/on (with per-step forced migrations),
// both transports and several cluster sizes:
// which server computes a tile changes timing, never values.
func TestRebalanceDeterminism(t *testing.T) {
	el := graph.GenerateRMAT(graph.DefaultRMAT(), 600, 6000, 42)
	p, err := tile.Split(el, tile.Options{TileSize: el.NumEdges()/16 + 1})
	if err != nil {
		t.Fatal(err)
	}
	const steps = 8

	run := func(t *testing.T, servers int, tr cluster.TransportKind, migrate bool) *Result {
		t.Helper()
		cfg := DefaultConfig(servers)
		cfg.WorkDir = t.TempDir()
		cfg.MaxSupersteps = steps
		cfg.Transport = tr
		if migrate {
			cfg.RebalancePlanHook = rotateHook(p.NumTiles())
		} else {
			cfg.Rebalance = RebalanceOff
		}
		res, err := New(cfg).Run(Input{Partition: p}, apps.PageRank{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	want := run(t, 1, cluster.Inproc, false).Values
	for _, servers := range []int{2, 4} {
		for _, tr := range []cluster.TransportKind{cluster.Inproc, cluster.TCP} {
			name := fmt.Sprintf("servers=%d/%s/%s/migrate", servers, tr, pipelinedCase)
			t.Run(name, func(t *testing.T) {
				res := run(t, servers, tr, true)
				var moved int
				for _, st := range res.Steps {
					moved += st.MigratedTiles
				}
				if moved == 0 {
					t.Fatal("forced-migration run migrated no tiles")
				}
				for v := range want {
					if math.Float64bits(res.Values[v]) != math.Float64bits(want[v]) {
						t.Fatalf("vertex %d = %x, want %x (not bit-identical after %d migrations)",
							v, math.Float64bits(res.Values[v]), math.Float64bits(want[v]), moved)
					}
				}
			})
		}
	}
}

// TestRebalanceAutoRelievesSkew seeds server 0 with 3× the tile load of
// server 1 and lets the measured-cost planner run with no minimum-step
// floor: the straggler must shed tiles, and the values must still match
// the balanced reference run exactly.
func TestRebalanceAutoRelievesSkew(t *testing.T) {
	el := graph.GenerateRMAT(graph.DefaultRMAT(), 2000, 100000, 5)
	p, err := tile.Split(el, tile.Options{TileSize: el.NumEdges()/16 + 1})
	if err != nil {
		t.Fatal(err)
	}
	assign, err := tile.AssignProportional(p.NumTiles(), []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(assign.TilesOf[0]) <= len(assign.TilesOf[1]) {
		t.Fatalf("assignment not skewed: %d vs %d tiles", len(assign.TilesOf[0]), len(assign.TilesOf[1]))
	}

	cfg := DefaultConfig(2)
	cfg.WorkDir = t.TempDir()
	cfg.MaxSupersteps = 6
	cfg.Assignment = assign
	cfg.RebalanceMinStep = -1 // let µs-scale test steps trigger the planner
	res, err := New(cfg).Run(Input{Partition: p}, apps.PageRank{})
	if err != nil {
		t.Fatal(err)
	}

	var moved int
	for _, st := range res.Steps {
		moved += st.MigratedTiles
	}
	if moved == 0 {
		t.Fatal("auto rebalancing never migrated a tile off a 3x-loaded server")
	}
	if out := res.Servers[0].TilesMigratedOut; out == 0 {
		t.Fatalf("straggler reports no donated tiles (cluster moved %d)", moved)
	}

	cfg2 := DefaultConfig(2)
	cfg2.WorkDir = t.TempDir()
	cfg2.MaxSupersteps = 6
	cfg2.Rebalance = RebalanceOff
	ref, err := New(cfg2).Run(Input{Partition: p}, apps.PageRank{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range ref.Values {
		if math.Float64bits(res.Values[v]) != math.Float64bits(ref.Values[v]) {
			t.Fatalf("vertex %d drifted after rebalancing", v)
		}
	}
}

// TestMigrationDiskFailureAborts injects disk failures into both ends of a
// tile migration — the donor's blob read and the recipient's blob write —
// and requires the run to surface the injected error instead of hanging or
// corrupting state.
func TestMigrationDiskFailureAborts(t *testing.T) {
	el := graph.GenerateRMAT(graph.DefaultRMAT(), 400, 4000, 13)
	p, err := tile.Split(el, tile.Options{TileSize: el.NumEdges()/8 + 1})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected migration failure")
	// Tile 0 starts on server 0 (round-robin); the hook moves it to
	// server 1 at the first boundary.
	migrBlob := "tiles/00000"
	hook := func(step int, costs [][]costmodel.TileCost) []costmodel.Move {
		if step != 0 {
			return nil
		}
		return []costmodel.Move{{Tile: 0, From: 0, To: 1}}
	}

	t.Run("recipient-write", func(t *testing.T) {
		cfg := DefaultConfig(2)
		cfg.WorkDir = t.TempDir()
		cfg.MaxSupersteps = 6
		cfg.RebalancePlanHook = hook
		cfg.DiskFailureHook = func(server int, op, name string) error {
			// Server 1 never writes tile 0's blob during setup, so the
			// first such write is the migration admitting it.
			if server == 1 && op == "write" && name == migrBlob {
				return boom
			}
			return nil
		}
		_, err := New(cfg).Run(Input{Partition: p}, apps.PageRank{})
		if err == nil {
			t.Fatal("migration write failure swallowed")
		}
		if !errors.Is(err, boom) && !strings.Contains(err.Error(), "injected") {
			t.Fatalf("error lost its cause: %v", err)
		}
	})

	t.Run("donor-read", func(t *testing.T) {
		reads := 0
		cfg := DefaultConfig(2)
		cfg.WorkDir = t.TempDir()
		cfg.MaxSupersteps = 6
		cfg.RebalancePlanHook = hook
		cfg.DiskFailureHook = func(server int, op, name string) error {
			// First read of tile 0 on server 0 is superstep 0's load (the
			// unlimited cache retains it); the second is the migration.
			if server == 0 && op == "read" && name == migrBlob {
				reads++
				if reads > 1 {
					return boom
				}
			}
			return nil
		}
		_, err := New(cfg).Run(Input{Partition: p}, apps.PageRank{})
		if err == nil {
			t.Fatal("migration read failure swallowed")
		}
		if !errors.Is(err, boom) && !strings.Contains(err.Error(), "injected") {
			t.Fatalf("error lost its cause: %v", err)
		}
	})

	// A migration racing an unrelated abort: server 2's compute fails at
	// the same step a 0→1 migration is planned; the servers blocked in the
	// rebalance handshake must unwind through the cluster abort.
	t.Run("concurrent-abort", func(t *testing.T) {
		reads := 0
		cfg := DefaultConfig(3)
		cfg.WorkDir = t.TempDir()
		cfg.MaxSupersteps = 10
		cfg.CacheCapacity = -1 // every superstep re-reads tiles from disk
		cfg.RebalancePlanHook = func(step int, costs [][]costmodel.TileCost) []costmodel.Move {
			return []costmodel.Move{{Tile: 0, From: 0, To: 1}, {Tile: 0, From: 1, To: 0}}[step%2 : step%2+1]
		}
		cfg.DiskFailureHook = func(server int, op, name string) error {
			if server == 2 && op == "read" {
				reads++
				if reads > 4 {
					return boom
				}
			}
			return nil
		}
		_, err := New(cfg).Run(Input{Partition: p}, apps.PageRank{})
		if err == nil {
			t.Fatal("abort during migration swallowed")
		}
		if !errors.Is(err, boom) && !strings.Contains(err.Error(), "injected") {
			t.Fatalf("error lost its cause: %v", err)
		}
	})
}
