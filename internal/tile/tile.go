// Package tile implements GraphH's two-stage graph partitioning (§III-B of
// the paper).
//
// Stage one splits the input graph's edges into P tiles of roughly
// S = |E|/P edges each, in a 1D fashion over the target-vertex axis: a
// splitter array is derived by sweeping the in-degree array and closing a
// tile whenever the accumulated in-edge count reaches S (Algorithm 4). The
// result guarantees that (1) each tile holds ≈|E|/P edges, (2) edges live in
// the same tile as their target vertex, and (3) target vertices in a tile
// have consecutive ids.
//
// Stage two assigns tiles to compute servers round-robin: tile i goes to
// server i mod N (§III-C-1).
package tile

import (
	"fmt"
	"sort"

	"repro/internal/csr"
	"repro/internal/graph"
)

// Options configures stage-one partitioning.
type Options struct {
	// TileSize is S, the target number of edges per tile. The paper uses
	// 15M–25M edges on billion-edge graphs (§III-B-3); scale proportionally.
	// If zero, DefaultTileSize is used.
	TileSize int
	// BloomFPRate is the per-tile Bloom filter false-positive rate; 0 means
	// the default of 1%. Negative disables filters entirely.
	BloomFPRate float64
}

// DefaultTileSize picks S so that each of the numServers×workersPerServer
// workers cycles through several tiles per superstep, mirroring the paper's
// guidance that S balances storage and computation.
func DefaultTileSize(numEdges, numServers, workersPerServer int) int {
	if numServers < 1 {
		numServers = 1
	}
	if workersPerServer < 1 {
		workersPerServer = 1
	}
	s := numEdges / (numServers * workersPerServer * 4)
	if s < 1024 {
		s = 1024
	}
	return s
}

// Partition is the output of stage one: the tile set plus the per-vertex
// degree arrays that SPE persists alongside it (§III-B-1).
type Partition struct {
	// Splitter has NumTiles+1 entries; tile t covers target vertices
	// [Splitter[t], Splitter[t+1]).
	Splitter []uint32
	// Tiles holds the CSR tiles in target-range order; Tiles[t].ID == t.
	Tiles []*csr.Tile
	// InDeg and OutDeg are the global degree arrays.
	InDeg, OutDeg []uint32
	// NumVertices and NumEdges describe the partitioned graph.
	NumVertices uint32
	NumEdges    int
	// Weighted records whether tiles carry explicit edge values.
	Weighted bool
	// Name of the source dataset.
	Name string
}

// NumTiles returns P.
func (p *Partition) NumTiles() int { return len(p.Tiles) }

// TileOfVertex returns the index of the tile that owns target vertex v.
func (p *Partition) TileOfVertex(v uint32) int {
	// Binary search over the splitter: largest t with Splitter[t] <= v.
	return sort.Search(len(p.Splitter)-1, func(t int) bool { return p.Splitter[t+1] > v })
}

// TotalTileBytes returns the summed in-memory size of all tiles, the S term
// in the cache-mode selection rule (§IV-B).
func (p *Partition) TotalTileBytes() int64 {
	var n int64
	for _, t := range p.Tiles {
		n += t.SizeBytes()
	}
	return n
}

// Split performs stage-one partitioning of the edge list.
func Split(el *graph.EdgeList, opts Options) (*Partition, error) {
	if el.NumVertices == 0 {
		return nil, fmt.Errorf("tile: cannot partition an empty graph")
	}
	s := opts.TileSize
	if s <= 0 {
		s = DefaultTileSize(el.NumEdges(), 1, 1)
	}
	fp := opts.BloomFPRate
	if fp == 0 {
		fp = 0.01
	}

	in, out := el.Degrees()
	splitter := buildSplitter(in, s)
	p := &Partition{
		Splitter:    splitter,
		InDeg:       in,
		OutDeg:      out,
		NumVertices: el.NumVertices,
		NumEdges:    el.NumEdges(),
		Weighted:    el.Weighted,
		Name:        el.Name,
	}

	// Vertex → tile lookup for the grouping pass.
	vertexTile := make([]uint32, el.NumVertices)
	for t := 0; t+1 < len(splitter); t++ {
		for v := splitter[t]; v < splitter[t+1]; v++ {
			vertexTile[v] = uint32(t)
		}
	}

	// Allocate each tile's CSR arrays from the in-degree prefix sums, then
	// place edges with a per-vertex fill cursor — O(|V|+|E|) overall.
	numTiles := len(splitter) - 1
	p.Tiles = make([]*csr.Tile, numTiles)
	for t := 0; t < numTiles; t++ {
		lo, hi := splitter[t], splitter[t+1]
		tl := &csr.Tile{
			ID:          uint32(t),
			TargetLo:    lo,
			TargetHi:    hi,
			NumVertices: el.NumVertices,
			Row:         make([]uint32, hi-lo+1),
		}
		for v := lo; v < hi; v++ {
			tl.Row[v-lo+1] = tl.Row[v-lo] + in[v]
		}
		numEdges := tl.Row[hi-lo]
		tl.Col = make([]uint32, numEdges)
		if el.Weighted {
			tl.Val = make([]float32, numEdges)
		}
		p.Tiles[t] = tl
	}
	cursor := make([]uint32, el.NumVertices)
	for _, e := range el.Edges {
		t := p.Tiles[vertexTile[e.Dst]]
		slot := t.Row[e.Dst-t.TargetLo] + cursor[e.Dst]
		cursor[e.Dst]++
		t.Col[slot] = e.Src
		if t.Val != nil {
			t.Val[slot] = e.W
		}
	}

	if fp > 0 {
		for _, t := range p.Tiles {
			t.BuildFilter(fp)
		}
	}
	for _, t := range p.Tiles {
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("tile: built invalid tile: %w", err)
		}
	}
	return p, nil
}

// buildSplitter sweeps the in-degree array, closing a tile whenever the
// accumulated edge count reaches s (Algorithm 4 lines 3–8). Every vertex —
// including zero-in-degree ones — belongs to exactly one tile.
func buildSplitter(in []uint32, s int) []uint32 {
	splitter := []uint32{0}
	size := 0
	for v := 0; v < len(in); v++ {
		size += int(in[v])
		if size >= s && v+1 < len(in) {
			splitter = append(splitter, uint32(v+1))
			size = 0
		}
	}
	return append(splitter, uint32(len(in)))
}

// Assignment is the stage-two mapping of tiles onto servers: the paper's
// static round-robin placement (Assign), fixed for the whole run.
type Assignment struct {
	// TilesOf[j] lists the tile indices owned by server j, in order.
	TilesOf [][]int
	// NumServers is N.
	NumServers int
}

// Assign distributes numTiles tiles across numServers servers round-robin:
// tile i belongs to server i mod N.
func Assign(numTiles, numServers int) (*Assignment, error) {
	if numServers < 1 {
		return nil, fmt.Errorf("tile: need at least one server, got %d", numServers)
	}
	a := &Assignment{TilesOf: make([][]int, numServers), NumServers: numServers}
	for i := 0; i < numTiles; i++ {
		j := i % numServers
		a.TilesOf[j] = append(a.TilesOf[j], i)
	}
	return a, nil
}

// ReassignDead maps each tile to a live server given the tile→server base
// ownership table and the cluster's alive set: tiles of live servers stay
// put, and each dead server's tiles are dealt round-robin across the live
// ranks in ascending tile order. The function is deterministic and pure —
// recovery runs it independently on every survivor and all of them must
// derive the identical placement from the same (owner, alive) inputs.
func ReassignDead(owner []int, alive []bool) ([]int, error) {
	var live []int
	for s, ok := range alive {
		if ok {
			live = append(live, s)
		}
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("tile: no live servers to reassign onto")
	}
	out := make([]int, len(owner))
	next := 0
	for t, s := range owner {
		if s < 0 || s >= len(alive) {
			return nil, fmt.Errorf("tile: tile %d owned by out-of-range server %d", t, s)
		}
		if alive[s] {
			out[t] = s
			continue
		}
		out[t] = live[next%len(live)]
		next++
	}
	return out, nil
}

// ServerOf returns the server that owns tile i in this assignment.
func (a *Assignment) ServerOf(i int) int {
	for j, tiles := range a.TilesOf {
		for _, t := range tiles {
			if t == i {
				return j
			}
		}
	}
	return -1
}
