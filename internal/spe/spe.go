// Package spe implements GraphH's graph pre-processing engine (§III-B).
// The paper implements it on Spark ("SPE") as three map-reduce jobs
// (Algorithm 4): two jobs compute per-vertex in/out-degrees, a sequential
// sweep of the in-degree array derives the tile splitter, and a final
// group-by-tile job shuffles edges into tiles and encodes them in CSR form.
//
// This implementation runs the same three jobs on a goroutine pool and
// persists the same outputs to the DFS substrate: one encoded CSR tile per
// splitter range, the in-degree and out-degree arrays, and a JSON manifest.
// SPE runs once per input graph; the persisted tiles are then reused by the
// processing engine (MPE) across applications.
package spe

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"path"
	"strings"
	"sync"

	"repro/internal/csr"
	"repro/internal/dfs"
	"repro/internal/graph"
	"repro/internal/tile"
)

// Engine is the pre-processing engine. It reads raw graphs from, and writes
// tiles to, a DFS instance.
type Engine struct {
	// DFS is the storage layer.
	DFS *dfs.DFS
	// Parallelism is the mapper/reducer pool size; zero means 4.
	Parallelism int
}

// New returns an Engine over the given DFS.
func New(d *dfs.DFS, parallelism int) *Engine {
	if parallelism <= 0 {
		parallelism = 4
	}
	return &Engine{DFS: d, Parallelism: parallelism}
}

// Manifest records the outputs of one pre-processing run. It is stored as
// JSON next to the tiles and is everything MPE needs to locate its input.
type Manifest struct {
	Name        string   `json:"name"`
	NumVertices uint32   `json:"num_vertices"`
	NumEdges    int      `json:"num_edges"`
	Weighted    bool     `json:"weighted"`
	TileSize    int      `json:"tile_size"`
	Splitter    []uint32 `json:"splitter"`
	TilePaths   []string `json:"tile_paths"`
	TileBytes   []int64  `json:"tile_bytes"`
	InDegPath   string   `json:"indeg_path"`
	OutDegPath  string   `json:"outdeg_path"`
}

// NumTiles returns P.
func (m *Manifest) NumTiles() int { return len(m.TilePaths) }

// TotalTileBytes returns the summed encoded size of all tiles (the
// "GraphH input size" column of Table IV).
func (m *Manifest) TotalTileBytes() int64 {
	var n int64
	for _, b := range m.TileBytes {
		n += b
	}
	return n
}

// manifestPath returns the DFS path of the manifest inside outDir.
func manifestPath(outDir string) string { return path.Join(outDir, "manifest.json") }

// LoadRawGraph reads an edge list from the DFS. Files ending in ".csv" or
// ".txt" are parsed as text; everything else as the binary format.
func (e *Engine) LoadRawGraph(rawPath string) (*graph.EdgeList, error) {
	data, err := e.DFS.ReadFile(rawPath)
	if err != nil {
		return nil, fmt.Errorf("spe: loading raw graph: %w", err)
	}
	name := path.Base(rawPath)
	if strings.HasSuffix(rawPath, ".csv") || strings.HasSuffix(rawPath, ".txt") {
		return graph.ReadCSV(bytes.NewReader(data), name)
	}
	return graph.ReadBinary(bytes.NewReader(data), name)
}

// Preprocess runs the full pre-processing pipeline on the raw graph stored
// at rawPath and persists tiles, degree arrays and manifest under outDir.
func (e *Engine) Preprocess(rawPath, outDir string, opts tile.Options) (*Manifest, error) {
	el, err := e.LoadRawGraph(rawPath)
	if err != nil {
		return nil, err
	}
	return e.PreprocessEdgeList(el, outDir, opts)
}

// PreprocessEdgeList is Preprocess for an already-loaded edge list.
func (e *Engine) PreprocessEdgeList(el *graph.EdgeList, outDir string, opts tile.Options) (*Manifest, error) {
	if el.NumVertices == 0 {
		return nil, fmt.Errorf("spe: cannot pre-process an empty graph")
	}
	s := opts.TileSize
	if s <= 0 {
		s = tile.DefaultTileSize(el.NumEdges(), 1, 1)
	}
	fp := opts.BloomFPRate
	if fp == 0 {
		fp = 0.01
	}

	// Jobs 1–2: parallel degree counting (Algorithm 4 lines 1–2).
	in, out := e.parallelDegrees(el)

	// Splitter sweep (Algorithm 4 lines 3–8).
	splitter := buildSplitter(in, s)
	numTiles := len(splitter) - 1

	// Vertex → tile lookup for the shuffle.
	vertexTile := make([]uint32, el.NumVertices)
	for t := 0; t+1 < len(splitter); t++ {
		for v := splitter[t]; v < splitter[t+1]; v++ {
			vertexTile[v] = uint32(t)
		}
	}

	// Job 3: group edges by tile id (Algorithm 4 lines 9–10). Mappers
	// bucket contiguous edge ranges; concatenating buckets in mapper order
	// preserves the global edge order within every target vertex, so the
	// output is identical to a sequential pass.
	numMappers := e.Parallelism
	buckets := make([][][]graph.Edge, numMappers)
	var wg sync.WaitGroup
	chunk := (el.NumEdges() + numMappers - 1) / numMappers
	for m := 0; m < numMappers; m++ {
		lo := m * chunk
		hi := lo + chunk
		if hi > el.NumEdges() {
			hi = el.NumEdges()
		}
		buckets[m] = make([][]graph.Edge, numTiles)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(m, lo, hi int) {
			defer wg.Done()
			local := buckets[m]
			for _, edge := range el.Edges[lo:hi] {
				t := vertexTile[edge.Dst]
				local[t] = append(local[t], edge)
			}
		}(m, lo, hi)
	}
	wg.Wait()

	// Reducers: build, encode and persist one CSR tile per splitter range.
	man := &Manifest{
		Name:        el.Name,
		NumVertices: el.NumVertices,
		NumEdges:    el.NumEdges(),
		Weighted:    el.Weighted,
		TileSize:    s,
		Splitter:    splitter,
		TilePaths:   make([]string, numTiles),
		TileBytes:   make([]int64, numTiles),
	}
	errs := make([]error, numTiles)
	sem := make(chan struct{}, e.Parallelism)
	for t := 0; t < numTiles; t++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(t int) {
			defer wg.Done()
			defer func() { <-sem }()
			tl := buildTile(uint32(t), splitter[t], splitter[t+1], el, in, buckets, t, fp)
			if err := tl.Validate(); err != nil {
				errs[t] = err
				return
			}
			p := path.Join(outDir, "tiles", fmt.Sprintf("tile-%05d", t))
			enc := tl.AppendEncode(nil)
			if err := e.DFS.WriteFile(p, enc); err != nil {
				errs[t] = err
				return
			}
			man.TilePaths[t] = p
			man.TileBytes[t] = int64(len(enc))
		}(t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("spe: building tiles: %w", err)
		}
	}

	// Persist degree arrays (§III-B-1: "SPE also computes each vertex's
	// in-degree and out-degree, and stores them as two arrays in DFS").
	man.InDegPath = path.Join(outDir, "indeg")
	man.OutDegPath = path.Join(outDir, "outdeg")
	if err := e.DFS.WriteFile(man.InDegPath, EncodeUint32s(in)); err != nil {
		return nil, fmt.Errorf("spe: writing in-degrees: %w", err)
	}
	if err := e.DFS.WriteFile(man.OutDegPath, EncodeUint32s(out)); err != nil {
		return nil, fmt.Errorf("spe: writing out-degrees: %w", err)
	}

	manJSON, err := json.Marshal(man)
	if err != nil {
		return nil, fmt.Errorf("spe: encoding manifest: %w", err)
	}
	if err := e.DFS.WriteFile(manifestPath(outDir), manJSON); err != nil {
		return nil, fmt.Errorf("spe: writing manifest: %w", err)
	}
	return man, nil
}

// buildTile assembles the CSR tile for target range [lo,hi) from the mapper
// buckets for tile index t.
func buildTile(id, lo, hi uint32, el *graph.EdgeList, in []uint32, buckets [][][]graph.Edge, t int, fp float64) *csr.Tile {
	tl := &csr.Tile{
		ID:          id,
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
	cursor := make([]uint32, hi-lo)
	for m := range buckets {
		for _, edge := range buckets[m][t] {
			local := edge.Dst - lo
			slot := tl.Row[local] + cursor[local]
			cursor[local]++
			tl.Col[slot] = edge.Src
			if tl.Val != nil {
				tl.Val[slot] = edge.W
			}
		}
	}
	if fp > 0 {
		tl.BuildFilter(fp)
	}
	return tl
}

// parallelDegrees is map-reduce jobs 1 and 2: mappers count degrees over
// edge ranges into private arrays, the reduce step sums them.
func (e *Engine) parallelDegrees(el *graph.EdgeList) (in, out []uint32) {
	numMappers := e.Parallelism
	partialIn := make([][]uint32, numMappers)
	partialOut := make([][]uint32, numMappers)
	chunk := (el.NumEdges() + numMappers - 1) / numMappers
	var wg sync.WaitGroup
	for m := 0; m < numMappers; m++ {
		lo := m * chunk
		hi := lo + chunk
		if hi > el.NumEdges() {
			hi = el.NumEdges()
		}
		partialIn[m] = make([]uint32, el.NumVertices)
		partialOut[m] = make([]uint32, el.NumVertices)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(m, lo, hi int) {
			defer wg.Done()
			pin, pout := partialIn[m], partialOut[m]
			for _, edge := range el.Edges[lo:hi] {
				pin[edge.Dst]++
				pout[edge.Src]++
			}
		}(m, lo, hi)
	}
	wg.Wait()
	in = make([]uint32, el.NumVertices)
	out = make([]uint32, el.NumVertices)
	for m := 0; m < numMappers; m++ {
		for v := range in {
			in[v] += partialIn[m][v]
			out[v] += partialOut[m][v]
		}
	}
	return in, out
}

// buildSplitter mirrors tile.Split's boundary rule so SPE output matches the
// in-memory partitioner exactly.
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

// LoadManifest reads a manifest previously written by Preprocess.
func (e *Engine) LoadManifest(outDir string) (*Manifest, error) {
	data, err := e.DFS.ReadFile(manifestPath(outDir))
	if err != nil {
		return nil, fmt.Errorf("spe: loading manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("spe: decoding manifest: %w", err)
	}
	return &m, nil
}

// FetchTile loads and decodes tile i of the manifest from the DFS.
func (e *Engine) FetchTile(m *Manifest, i int) (*csr.Tile, error) {
	if i < 0 || i >= m.NumTiles() {
		return nil, fmt.Errorf("spe: tile index %d out of range [0,%d)", i, m.NumTiles())
	}
	data, err := e.DFS.ReadFile(m.TilePaths[i])
	if err != nil {
		return nil, fmt.Errorf("spe: fetching tile %d: %w", i, err)
	}
	t := new(csr.Tile)
	if err := csr.DecodeInto(t, data); err != nil {
		return nil, err
	}
	return t, nil
}

// FetchDegrees loads the in- and out-degree arrays from the DFS.
func (e *Engine) FetchDegrees(m *Manifest) (in, out []uint32, err error) {
	inData, err := e.DFS.ReadFile(m.InDegPath)
	if err != nil {
		return nil, nil, fmt.Errorf("spe: fetching in-degrees: %w", err)
	}
	outData, err := e.DFS.ReadFile(m.OutDegPath)
	if err != nil {
		return nil, nil, fmt.Errorf("spe: fetching out-degrees: %w", err)
	}
	if in, err = DecodeUint32s(inData); err != nil {
		return nil, nil, fmt.Errorf("spe: decoding in-degrees: %w", err)
	}
	if out, err = DecodeUint32s(outData); err != nil {
		return nil, nil, fmt.Errorf("spe: decoding out-degrees: %w", err)
	}
	return in, out, nil
}

// EncodeUint32s serializes a uint32 array as little-endian with a length
// prefix; the format of the persisted degree arrays.
func EncodeUint32s(vals []uint32) []byte {
	out := make([]byte, 4+4*len(vals))
	binary.LittleEndian.PutUint32(out, uint32(len(vals)))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4+4*i:], v)
	}
	return out
}

// DecodeUint32s parses EncodeUint32s output.
func DecodeUint32s(data []byte) ([]uint32, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("spe: uint32 array too short")
	}
	n := binary.LittleEndian.Uint32(data)
	if uint64(len(data)) != 4+4*uint64(n) {
		return nil, fmt.Errorf("spe: uint32 array length %d, header says %d entries", len(data), n)
	}
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = binary.LittleEndian.Uint32(data[4+4*i:])
	}
	return vals, nil
}
