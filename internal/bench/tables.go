package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/compress"
	"repro/internal/costmodel"
	"repro/internal/graph"
)

func init() {
	register(Experiment{
		ID:    "t1",
		Title: "Table I — benchmark graph datasets",
		Run:   runTable1,
	})
	register(Experiment{
		ID:    "t2",
		Title: "Table II — system taxonomy (qualitative)",
		Run:   runTable2,
	})
	register(Experiment{
		ID:    "t3",
		Title: "Table III — per-system cost model (PageRank)",
		Run:   runTable3,
	})
	register(Experiment{
		ID:    "t4",
		Title: "Table IV — input data size per system",
		Run:   runTable4,
	})
	register(Experiment{
		ID:    "t5",
		Title: "Table V — compression ratio and throughput",
		Run:   runTable5,
	})
}

func runTable1(c *Context, w io.Writer) error {
	tw := newTable(w)
	fmt.Fprintln(tw, "graph\t|V|\t|E|\tavg-deg\tmax-in\tmax-out\tCSV-MB\tpaper(|V|,|E|,avg)")
	for _, d := range graph.BenchmarkDatasets {
		el, err := c.Dataset(d.Name)
		if err != nil {
			return err
		}
		s := el.ComputeStats()
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f\t%d\t%d\t%s\t%dM, %.1fB, %.1f\n",
			s.Name, s.NumVertices, s.NumEdges, s.AvgDegree, s.MaxInDeg, s.MaxOutDeg,
			mb(s.CSVBytes),
			d.PaperVertices/1_000_000, float64(d.PaperEdges)/1e9,
			float64(d.PaperEdges)/float64(d.PaperVertices))
	}
	return tw.Flush()
}

func runTable2(c *Context, w io.Writer) error {
	fmt.Fprint(w, `system class     systems                                  in-memory data                              platform               performance
in-memory        Pregel+, PowerGraph, PowerLyra, ...      all vertex states, edges & messages         large clusters         high (no disk I/O)
out-of-core      GraphD, Chaos                            (part of) vertex states                     small commodity        low (frequent disk I/O)
hybrid (GraphH)  GraphH                                   all vertex states & messages, cached edges  small commodity        high (cache cuts disk I/O)
`)
	return nil
}

func runTable3(c *Context, w io.Writer) error {
	// Evaluate the model at paper scale for UK-2007, the paper's costing
	// example, and at sim scale for the local dataset.
	el, err := c.Dataset("uk2007-sim")
	if err != nil {
		return err
	}
	in, out := el.Degrees()
	m := costmodel.ReplicationFactor(in, out, c.Servers)

	for _, variant := range []struct {
		label string
		g     costmodel.GraphParams
	}{
		{"paper scale (UK-2007)", costmodel.Params(134_000_000, 5_500_000_000)},
		{fmt.Sprintf("sim scale (%s)", el.Name), costmodel.Params(uint64(el.NumVertices), uint64(el.NumEdges()))},
	} {
		fmt.Fprintf(w, "%s, N=%d, PageRank, per superstep:\n", variant.label, c.Servers)
		rows := costmodel.TableIII(costmodel.TableIIIInputs{
			Graph: variant.g, N: c.Servers, P: 8 * c.Servers, W: 24 * c.Servers,
			M: m, Beta: 0.2,
		})
		tw := newTable(w)
		fmt.Fprintln(tw, "system\tRAM-vertex-MB\tRAM-edge-MB\tRAM-msg-MB\tnet-MB\tdisk-rd-MB\tdisk-wr-MB")
		for _, r := range rows {
			fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\n", r.System,
				r.RAMVertex/1e6, r.RAMEdge/1e6, r.RAMMsg/1e6,
				r.Network/1e6, r.DiskRead/1e6, r.DiskWrite/1e6)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "(measured vertex-cut replication factor on %s at N=%d: M=%.2f)\n", el.Name, c.Servers, m)
	return nil
}

func runTable4(c *Context, w io.Writer) error {
	tw := newTable(w)
	fmt.Fprintln(tw, "graph\tCSV-MB\tPregel+/GraphD-MB\tGiraph-MB\tChaos-MB\tGraphH-tiles-MB\tpaper-ratio(tiles/CSV)")
	for _, d := range graph.BenchmarkDatasets {
		el, err := c.Dataset(d.Name)
		if err != nil {
			return err
		}
		p, err := c.Partitioned(d.Name)
		if err != nil {
			return err
		}
		csvBytes := el.CSVSize()
		// Pregel+/GraphD convert to 8-byte binary adjacency records;
		// Giraph keeps a text adjacency (~1.4x the binary form in the
		// paper's Table IV ratios); Chaos stores 12-byte edge records.
		pregelBytes := int64(el.NumEdges()) * 8
		giraphBytes := csvBytes * 1220 / 1700 // paper's Giraph/CSV ratio on EU-2015
		chaosBytes := int64(el.NumEdges()) * 12
		var tileBytes int64
		for _, t := range p.Tiles {
			tileBytes += int64(t.EncodedSize())
		}
		// The paper's GraphH column also includes both degree arrays.
		tileBytes += int64(el.NumVertices) * 8
		paperRatio := map[string]float64{
			"twitter-sim": 7.0 / 24, "uk2007-sim": 25.0 / 94,
			"uk2014-sim": 204.0 / 874, "eu2015-sim": 378.0 / 1700,
		}[d.Name]
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%.2f (ours %.2f)\n",
			d.Name, mb(csvBytes), mb(pregelBytes), mb(giraphBytes), mb(chaosBytes),
			mb(tileBytes), paperRatio, float64(tileBytes)/float64(csvBytes))
	}
	return tw.Flush()
}

func runTable5(c *Context, w io.Writer) error {
	tw := newTable(w)
	fmt.Fprintln(tw, "graph\tcodec\tratio\tcompress-MB/s\tdecompress-MB/s\ttile-MB(raw)\ttile-MB(codec)")
	for _, d := range graph.BenchmarkDatasets {
		p, err := c.Partitioned(d.Name)
		if err != nil {
			return err
		}
		// Concatenate encoded tiles: the byte stream the cache compresses.
		var raw []byte
		for _, t := range p.Tiles {
			raw = t.AppendEncode(raw)
		}
		for _, mode := range []compress.Mode{compress.Snappy, compress.Zlib1, compress.Zlib3} {
			start := time.Now()
			enc, err := mode.AppendCompress(nil, raw)
			if err != nil {
				return err
			}
			compDur := time.Since(start)
			start = time.Now()
			if _, err := mode.AppendDecompress(nil, enc); err != nil {
				return err
			}
			decDur := time.Since(start)
			ratio := float64(len(raw)) / float64(len(enc))
			fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.0f\t%.0f\t%s\t%s\n",
				d.Name, mode, ratio,
				float64(len(raw))/1e6/compDur.Seconds(),
				float64(len(raw))/1e6/decDur.Seconds(),
				mb(int64(len(raw))), mb(int64(len(enc))))
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "paper (UK-2007): snappy 1.89 @947MB/s, zlib-1 3.71 @58MB/s, zlib-3 4.54 @53MB/s compress; decompress 903/65/50 MB/s (EU-2015 figures)")
	return nil
}
