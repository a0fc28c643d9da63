// Command graphhd serves a long-lived GraphH session to remote clients over
// HTTP. It loads (or generates) a graph, partitions it once, opens one
// session, and serves the repro/api JSON surface until SIGINT/SIGTERM —
// which triggers a graceful drain: running jobs finish (up to
// -drain-timeout, then they are canceled at a superstep edge), new
// submissions get 503, and the session closes before exit.
//
// Usage:
//
//	graphhd -listen 127.0.0.1:8480 -in web.bin -servers 4 -concurrent-jobs 2
//	curl -X POST localhost:8480/v1/jobs -d '{"program":{"name":"pagerank"}}'
//	curl localhost:8480/v1/jobs/j1/progress        # NDJSON, one line per superstep
//	curl 'localhost:8480/v1/jobs/j1/result?offset=0&limit=5'
//
// The readiness line printed on stdout ("graphhd: serving ...") is part of
// the interface: the smoke test and scripts wait for it before connecting.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	graphh "repro"
	"repro/internal/service"
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:8480", "HTTP listen address")
		in         = flag.String("in", "", "input edge list (.csv/.txt = text, else binary)")
		dataset    = flag.String("dataset", "", "generate a named dataset instead of reading -in")
		scale      = flag.Float64("scale", 1.0, "dataset scale factor")
		servers    = flag.Int("servers", 1, "simulated cluster size N")
		workers    = flag.Int("workers", 0, "workers per server T (0 = auto)")
		steps      = flag.Int("supersteps", 50, "default maximum supersteps per job")
		tileSize   = flag.Int("tile-size", 0, "edges per tile S (0 = auto)")
		cacheCap   = flag.Int64("cache-bytes", 0, "edge cache capacity per server (0 = unlimited, <0 disabled)")
		cacheMode  = flag.String("cache-mode", "auto", "cache codec: auto, raw, snappy, zlib-1, zlib-3")
		cachePol   = flag.String("cache-policy", "auto", "cache eviction: auto, admit-no-evict, clock")
		msgCodec   = flag.String("msg-codec", "auto", "default message codec: auto (snappy only where -net-bw makes it pay), raw, snappy, zlib-1, zlib-3")
		tcp        = flag.Bool("tcp", false, "use the TCP loopback transport between simulated servers")
		symmetrize = flag.Bool("symmetrize", false, "add reverse edges before serving (needed by wcc)")
		diskBW     = flag.Int64("disk-bw", 0, "disk bandwidth model, bytes/s (0 = unthrottled)")
		diskLat    = flag.Duration("disk-latency", 0, "disk per-read-op latency model (0 = pure bandwidth)")
		netBW      = flag.Int64("net-bw", 0, "network bandwidth model, bytes/s (0 = unlimited)")
		prefetch   = flag.Int("prefetch-depth", 0, "sweep-ahead tile prefetch window (0 = auto, <0 = off)")
		residency  = flag.String("residency", "auto", "tile residency tier: auto, cached, streaming")
		ckptEvery  = flag.Int("checkpoint-every", 0, "checkpoint the vertex state every K supersteps (0 = off)")
		failTO     = flag.Duration("failure-timeout", 0, "declare a server dead after its traffic stalls this long (0 = off)")
		concJobs   = flag.Int("concurrent-jobs", 2, "jobs the session runs concurrently (1 = serial)")
		queueJobs  = flag.Int("max-queued-jobs", 0, "jobs allowed to wait beyond the concurrency level (0 = library default)")
		drainTO    = flag.Duration("drain-timeout", 30*time.Second, "on SIGTERM, let running jobs finish this long before canceling them")
		debug      = flag.Bool("debug", false, "mount net/http/pprof under /debug/pprof/")
	)
	flag.Parse()

	g, err := loadGraph(*in, *dataset, *scale)
	if err != nil {
		fail(err)
	}
	if *symmetrize {
		g = g.Symmetrize()
	}
	p, err := graphh.Partition(g, graphh.PartitionOptions{TileSize: *tileSize})
	if err != nil {
		fail(err)
	}
	opts := graphh.Options{
		Servers:            *servers,
		Workers:            *workers,
		MaxSupersteps:      *steps,
		CacheCapacity:      *cacheCap,
		DiskReadBandwidth:  *diskBW,
		DiskWriteBandwidth: *diskBW,
		DiskReadLatency:    *diskLat,
		NetBandwidth:       *netBW,
		PrefetchDepth:      *prefetch,
		CheckpointEvery:    *ckptEvery,
		FailureTimeout:     *failTO,
		MaxConcurrentJobs:  *concJobs,
		MaxQueuedJobs:      *queueJobs,
	}
	if *tcp {
		opts.Transport = graphh.TransportTCP
	}
	if *cacheMode != "auto" {
		m, err := graphh.CodecByName(*cacheMode)
		if err != nil {
			fail(err)
		}
		opts.CacheMode = &m
	}
	if *cachePol != "auto" {
		pol, err := graphh.CachePolicyByName(*cachePol)
		if err != nil {
			fail(err)
		}
		opts.CachePolicy = &pol
	}
	if r, err := graphh.ResidencyByName(*residency); err != nil {
		fail(err)
	} else {
		opts.Residency = r
	}
	if *msgCodec != "auto" {
		mc, err := graphh.CodecByName(*msgCodec)
		if err != nil {
			fail(err)
		}
		opts.MessageCodec = &mc
	}

	sess, err := graphh.Open(p, opts)
	if err != nil {
		fail(err)
	}
	svc := service.New(sess, service.Config{
		NumVertices:       int(g.NumVertices),
		NumTiles:          p.NumTiles(),
		Servers:           *servers,
		MaxConcurrentJobs: *concJobs,
		Debug:             *debug,
	})
	expvar.Publish("graphhd", svc.Vars())

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fail(err)
	}
	hs := newHTTPServer(svc.Handler())

	// Readiness line: the actual bound address (important with :0 ports),
	// printed only once the listener exists. Scripts parse this.
	fmt.Printf("graphhd: serving %s |V|=%d |E|=%d tiles=%d servers=%d concurrent-jobs=%d on http://%s\n",
		g.Name, g.NumVertices, g.NumEdges(), p.NumTiles(), *servers, *concJobs, ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("graphhd: %v: draining (timeout %v)\n", s, *drainTO)
	case err := <-serveErr:
		fail(err)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := svc.Drain(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "graphhd: drain:", err)
	}
	if err := hs.Shutdown(context.Background()); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "graphhd: shutdown:", err)
	}
	<-serveErr // Serve has returned ErrServerClosed
	fmt.Println("graphhd: drained, session closed")
}

// Connection timeouts of the HTTP server. A client that trickles its request
// headers, or parks an idle keep-alive connection, is cut off instead of
// holding the connection forever. There is deliberately no write timeout:
// progress streams and result pages stay open as long as a job runs.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the daemon's HTTP server around handler.
func newHTTPServer(handler http.Handler) *http.Server {
	return &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func loadGraph(in, dataset string, scale float64) (*graphh.Graph, error) {
	if dataset != "" {
		return graphh.Generate(dataset, scale)
	}
	if in == "" {
		return nil, fmt.Errorf("need -in or -dataset")
	}
	f, err := os.Open(in)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(in, ".csv") || strings.HasSuffix(in, ".txt") {
		return graphh.LoadCSV(f, in)
	}
	return graphh.LoadBinary(f, in)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "graphhd:", err)
	os.Exit(1)
}
