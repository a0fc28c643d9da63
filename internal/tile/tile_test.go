package tile

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestSplitBasicInvariants(t *testing.T) {
	el := graph.GenerateRMAT(graph.DefaultRMAT(), 1000, 10_000, 5)
	p, err := Split(el, Options{TileSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, el, p)
	if p.NumTiles() < 5 {
		t.Fatalf("expected ~10 tiles at S=1000, got %d", p.NumTiles())
	}
}

// checkPartition verifies the §III-B tile properties against the edge list.
func checkPartition(t *testing.T, el *graph.EdgeList, p *Partition) {
	t.Helper()
	// Splitter covers [0, |V|) without gaps.
	if p.Splitter[0] != 0 || p.Splitter[len(p.Splitter)-1] != el.NumVertices {
		t.Fatalf("splitter endpoints wrong: %v", p.Splitter)
	}
	for i := 1; i < len(p.Splitter); i++ {
		if p.Splitter[i] < p.Splitter[i-1] {
			t.Fatalf("splitter not monotone: %v", p.Splitter)
		}
	}
	// Property 2 & 3: edges live with their target; targets consecutive.
	total := 0
	for i, tl := range p.Tiles {
		if tl.ID != uint32(i) {
			t.Fatalf("tile %d has ID %d", i, tl.ID)
		}
		if tl.TargetLo != p.Splitter[i] || tl.TargetHi != p.Splitter[i+1] {
			t.Fatalf("tile %d range [%d,%d) disagrees with splitter", i, tl.TargetLo, tl.TargetHi)
		}
		total += tl.NumEdges()
		if err := tl.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// Every edge in exactly one tile.
	if total != el.NumEdges() {
		t.Fatalf("tiles hold %d edges, graph has %d", total, el.NumEdges())
	}
	// Edge multiset is preserved: compare per-target in-edge counts and a
	// sampled membership check.
	in, _ := el.Degrees()
	for v := uint32(0); v < el.NumVertices; v++ {
		tl := p.Tiles[p.TileOfVertex(v)]
		srcs, _ := tl.InEdges(v)
		if len(srcs) != int(in[v]) {
			t.Fatalf("vertex %d has %d in-edges in tile, want %d", v, len(srcs), in[v])
		}
	}
}

func TestSplitEdgeBalance(t *testing.T) {
	el := graph.GenerateUniform(2000, 40_000, 3)
	s := 4000
	p, err := Split(el, Options{TileSize: s})
	if err != nil {
		t.Fatal(err)
	}
	// Every tile except possibly the last must reach S; no tile may exceed
	// S by more than the largest single in-degree (high-degree vertices are
	// indivisible, §III-B-3).
	in, _ := el.Degrees()
	var maxIn int
	for _, d := range in {
		if int(d) > maxIn {
			maxIn = int(d)
		}
	}
	for i, tl := range p.Tiles {
		if i < p.NumTiles()-1 && tl.NumEdges() < s {
			t.Errorf("tile %d has %d < S=%d edges", i, tl.NumEdges(), s)
		}
		if tl.NumEdges() > s+maxIn {
			t.Errorf("tile %d has %d edges, exceeding S+maxInDeg=%d", i, tl.NumEdges(), s+maxIn)
		}
	}
}

func TestSplitWeighted(t *testing.T) {
	el := graph.AttachWeights(graph.GenerateUniform(100, 1000, 7), 5, 11)
	p, err := Split(el, Options{TileSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Weighted {
		t.Fatal("weighted flag lost")
	}
	// Each in-edge (u,v,w) must be recoverable from v's tile.
	type key struct{ u, v uint32 }
	want := map[key][]float32{}
	for _, e := range el.Edges {
		k := key{e.Src, e.Dst}
		want[k] = append(want[k], e.W)
	}
	for v := uint32(0); v < el.NumVertices; v++ {
		tl := p.Tiles[p.TileOfVertex(v)]
		srcs, vals := tl.InEdges(v)
		got := map[key][]float32{}
		for i := range srcs {
			k := key{srcs[i], v}
			got[k] = append(got[k], vals[i])
		}
		for k, ws := range got {
			if len(ws) != len(want[k]) {
				t.Fatalf("edge %v multiplicity %d, want %d", k, len(ws), len(want[k]))
			}
		}
	}
}

func TestSplitSingleTile(t *testing.T) {
	el := graph.GenerateChain(10)
	p, err := Split(el, Options{TileSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumTiles() != 1 {
		t.Fatalf("S >> |E| should give one tile, got %d", p.NumTiles())
	}
}

func TestSplitSkewedStar(t *testing.T) {
	// A single high in-degree vertex cannot be split across tiles.
	star := &graph.EdgeList{NumVertices: 100}
	for v := uint32(1); v < 100; v++ {
		star.Edges = append(star.Edges, graph.Edge{Src: v, Dst: 0, W: 1})
	}
	p, err := Split(star, Options{TileSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	tl := p.Tiles[p.TileOfVertex(0)]
	srcs, _ := tl.InEdges(0)
	if len(srcs) != 99 {
		t.Fatalf("hub vertex has %d in-edges in its tile, want 99", len(srcs))
	}
	checkPartition(t, star, p)
}

func TestSplitEmptyGraphRejected(t *testing.T) {
	if _, err := Split(&graph.EdgeList{}, Options{}); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestBloomFiltersBuilt(t *testing.T) {
	el := graph.GenerateUniform(500, 5000, 9)
	p, err := Split(el, Options{TileSize: 500})
	if err != nil {
		t.Fatal(err)
	}
	for _, tl := range p.Tiles {
		if tl.Filter == nil {
			t.Fatal("tile missing bloom filter")
		}
		for _, s := range tl.Col {
			if !tl.Filter.Contains(s) {
				t.Fatalf("tile %d filter missing source %d", tl.ID, s)
			}
		}
	}
	// Negative rate disables filters.
	p2, err := Split(el, Options{TileSize: 500, BloomFPRate: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tl := range p2.Tiles {
		if tl.Filter != nil {
			t.Fatal("filter built despite BloomFPRate < 0")
		}
	}
}

func TestTileOfVertex(t *testing.T) {
	el := graph.GenerateUniform(1000, 20_000, 13)
	p, err := Split(el, Options{TileSize: 2000})
	if err != nil {
		t.Fatal(err)
	}
	for v := uint32(0); v < el.NumVertices; v++ {
		i := p.TileOfVertex(v)
		tl := p.Tiles[i]
		if v < tl.TargetLo || v >= tl.TargetHi {
			t.Fatalf("TileOfVertex(%d) = %d covering [%d,%d)", v, i, tl.TargetLo, tl.TargetHi)
		}
	}
}

func TestAssignRoundRobin(t *testing.T) {
	a, err := Assign(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 3, 6, 9}, {1, 4, 7}, {2, 5, 8}}
	for j := range want {
		if len(a.TilesOf[j]) != len(want[j]) {
			t.Fatalf("server %d tiles = %v, want %v", j, a.TilesOf[j], want[j])
		}
		for k := range want[j] {
			if a.TilesOf[j][k] != want[j][k] {
				t.Fatalf("server %d tiles = %v, want %v", j, a.TilesOf[j], want[j])
			}
		}
	}
	for i := 0; i < 10; i++ {
		if a.ServerOf(i) != i%3 {
			t.Fatalf("ServerOf(%d) = %d", i, a.ServerOf(i))
		}
	}
	if _, err := Assign(5, 0); err == nil {
		t.Fatal("zero servers accepted")
	}
}

func TestDefaultTileSize(t *testing.T) {
	if s := DefaultTileSize(1_000_000, 4, 8); s != 1_000_000/(4*8*4) {
		t.Fatalf("DefaultTileSize = %d", s)
	}
	if s := DefaultTileSize(100, 1, 1); s != 1024 {
		t.Fatalf("floor not applied: %d", s)
	}
	if s := DefaultTileSize(1<<20, 0, 0); s <= 0 {
		t.Fatalf("degenerate servers: %d", s)
	}
}

func TestPropertyPartitionPreservesEdges(t *testing.T) {
	prop := func(seed uint64, tileSizeRaw uint16) bool {
		rng := rand.New(rand.NewPCG(seed, 17))
		nv := rng.Uint32N(300) + 2
		ne := int(rng.Uint32N(3000))
		el := &graph.EdgeList{NumVertices: nv}
		for i := 0; i < ne; i++ {
			el.Edges = append(el.Edges, graph.Edge{
				Src: rng.Uint32N(nv), Dst: rng.Uint32N(nv), W: 1,
			})
		}
		s := int(tileSizeRaw)%500 + 1
		p, err := Split(el, Options{TileSize: s})
		if err != nil {
			return false
		}
		// Rebuild the edge multiset from tiles and compare counts.
		count := make(map[[2]uint32]int)
		for _, e := range el.Edges {
			count[[2]uint32{e.Src, e.Dst}]++
		}
		for _, tl := range p.Tiles {
			for v := tl.TargetLo; v < tl.TargetHi; v++ {
				srcs, _ := tl.InEdges(v)
				for _, u := range srcs {
					count[[2]uint32{u, v}]--
				}
			}
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySplitterCoversAllVertices(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 23))
		nv := rng.Uint32N(500) + 1
		el := &graph.EdgeList{NumVertices: nv}
		for i := 0; i < int(nv)*2; i++ {
			el.Edges = append(el.Edges, graph.Edge{Src: rng.Uint32N(nv), Dst: rng.Uint32N(nv), W: 1})
		}
		p, err := Split(el, Options{TileSize: int(rng.Uint32N(100)) + 1})
		if err != nil {
			return false
		}
		covered := uint32(0)
		for _, tl := range p.Tiles {
			if tl.TargetLo != covered {
				return false
			}
			covered = tl.TargetHi
		}
		return covered == nv
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
