package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	graphh "repro"
	"repro/api"
	"repro/client"
	"repro/internal/service"
)

// job is what one client saw of one of its jobs.
type job struct {
	id      string // the daemon's job id (svc-mixed only)
	values  []float64
	steps   []graphh.StepStats
	servers []graphh.ServerStats
	// submitted and done bound the job's run as its client saw it;
	// firstStep is the arrival of the first progress line and fetched the
	// arrival of the last result page (both only on svc-mixed).
	submitAt, submitted, firstStep, done, fetched time.Time
	resultPages                                   int
	resultBytes                                   int64
}

// unit is one measured unit of work: one Session.Submit, or one svc-mixed
// round (both clients' submit → last result page).
type unit struct {
	wall, cpu time.Duration
	// marks are the instants at which the unit passed the points every unit
	// of the workload passes doing the same work in between: its start,
	// every superstep barrier (in-process) or the first client's POST
	// response, end of stream and every result page (svc-mixed), and its
	// end. Progress lines are no such points: the daemon replays the steps
	// a stream missed in one burst, and how the two jobs' supersteps
	// interleave differs from round to round.
	marks     []mark
	jobs      []job
	counters  map[string]float64
	residency string
	overlap   bool
}

// mark is one instant of a unit's timeline: the wall clock and the CPU time
// the process had used by then.
type mark struct {
	at  time.Time
	cpu time.Duration
}

// timeline collects a unit's marks. A nil timeline collects nothing: only
// the first client of a round keeps one, since two clients' events do not
// interleave the same way twice.
type timeline struct{ marks []mark }

func (t *timeline) mark() time.Time {
	now := time.Now()
	if t != nil {
		t.marks = append(t.marks, mark{now, cpuTime()})
	}
	return now
}

// tally counts operations (jobs) and the ones whose result was wrong.
type tally struct{ attempted, failed int }

// session is a warm deployment of one workload: the partition, the open
// graphh.Session and, for svc-mixed, the HTTP front and its two clients.
type session struct {
	w     *workload
	part  *graphh.Partitioned
	opts  graphh.Options
	sess  *graphh.Session
	front *front
	// first holds each client's first result, which the oracle vouched for
	// and which every later job must repeat bit for bit.
	first [][]float64
	// prev is the cumulative per-server counters after the previous unit.
	prev         []graphh.ServerStats
	cold         *cold
	units, marks int // units run so far; marks the latest one took
	// rejected and served are the daemon's cumulative counters after the
	// latest round, servedBefore the byte counter after the one before.
	rejected, served, servedBefore int64
}

// front is the daemon side of svc-mixed plus its remote users.
type front struct {
	svc     *service.Server
	hs      *http.Server
	served  chan error
	clients []*client.Client
	wires   []*wire
}

// wire is one client's HTTP transport: it counts the response bytes of
// result pages and, on a traced run, records a span per HTTP call.
// A wire is used by one goroutine at a time (its client's), so its fields
// need no synchronisation.
type wire struct {
	base *http.Transport
	lane int

	// tr, parent and unit place the spans of the calls that follow; tl gets
	// a mark per result page.
	tr           *tracer
	parent, unit int
	tl           *timeline

	resultBytes int64
	resultPages int
}

func (w *wire) RoundTrip(req *http.Request) (*http.Response, error) {
	isResult := strings.HasSuffix(req.URL.Path, "/result")
	id := w.tr.begin(req.Method+" "+routeOf(req.URL.Path), w.parent, w.unit, w.lane)
	resp, err := w.base.RoundTrip(req)
	if err != nil {
		w.tr.end(id)
		return nil, err
	}
	if isResult {
		w.resultPages++
	}
	resp.Body = &wireBody{ReadCloser: resp.Body, w: w, tr: w.tr, span: id, result: isResult}
	return resp, nil
}

// routeOf replaces the job id in a request path so spans group by route.
func routeOf(path string) string {
	parts := strings.Split(path, "/")
	if len(parts) > 3 && parts[2] == "jobs" {
		parts[3] = "{id}"
	}
	return strings.Join(parts, "/")
}

type wireBody struct {
	io.ReadCloser
	w      *wire
	tr     *tracer
	span   int
	result bool
	closed bool
}

func (b *wireBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if b.result {
		b.w.resultBytes += int64(n)
	}
	return n, err
}

func (b *wireBody) Close() error {
	if !b.closed {
		b.closed = true
		b.tr.end(b.span)
		if b.result {
			b.w.tl.mark()
		}
	}
	return b.ReadCloser.Close()
}

// cold is the timing of one cold start: partitioning, opening, and the
// first unit of work.
type cold struct {
	split, open time.Duration
	first       *unit
}

// coldStart is what setup_s times: partition the graph, open a session in a
// fresh WorkDir (plus service.New and a listener for svc-mixed) and run the
// first unit of work, so work moved out of Open into a lazily-paid first
// sweep still counts. The first results are checked against the oracle.
func coldStart(ctx context.Context, w *workload, g *graphh.Graph, expected [][]float64, workDir string, tr *tracer, ops *tally) (*session, *cold, error) {
	start := time.Now()
	root := tr.begin("cold-start", -1, 0, 0)
	defer tr.end(root)

	id := tr.begin("graphh.Partition", root, 0, 0)
	part, err := graphh.Partition(g, w.partitionOptions(g))
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	s := &session{w: w, part: part, opts: w.sessionOptions(part, workDir), cold: &cold{split: time.Since(start)}}

	id = tr.begin("graphh.Open", root, 0, 0)
	openStart := time.Now()
	s.sess, err = graphh.Open(part, s.opts)
	if err == nil && w.service {
		s.front, err = newFront(s.sess, g, part, len(w.clients))
	}
	s.cold.open = time.Since(openStart)
	tr.end(id)
	if err != nil {
		s.close()
		return nil, nil, err
	}

	u, err := s.runUnit(ctx, tr, root)
	if err != nil {
		s.close()
		return nil, nil, err
	}
	s.cold.first = u
	s.first = make([][]float64, len(u.jobs))
	for c, j := range u.jobs {
		ops.attempted++
		if err := checkOracle(j.values, expected[c], w.clients[c].tol); err != nil {
			ops.failed++
			logf("%s: first %s job of the session is wrong: %v", w.name, w.clients[c].program.Name, err)
		}
		s.first[c] = j.values
	}
	return s, s.cold, nil
}

func newFront(sess *graphh.Session, g *graphh.Graph, part *graphh.Partitioned, nClients int) (*front, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &front{served: make(chan error, 1)}
	f.svc = service.New(sess, service.Config{
		NumVertices: int(g.NumVertices), NumTiles: part.NumTiles(),
		Servers: servers, MaxConcurrentJobs: nClients,
	})
	f.hs = &http.Server{Handler: f.svc.Handler()}
	go func() { f.served <- f.hs.Serve(ln) }()
	for c := 0; c < nClients; c++ {
		// One connection pool per client: they are independent remote users.
		wr := &wire{base: &http.Transport{}, lane: c + 1}
		f.wires = append(f.wires, wr)
		f.clients = append(f.clients, client.NewWithHTTPClient("http://"+ln.Addr().String(), &http.Client{Transport: wr}))
	}
	return f, nil
}

// close drains the daemon (which closes the session) or closes the session.
func (s *session) close() error {
	if s.front == nil {
		if s.sess == nil {
			return nil
		}
		return s.sess.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.front.svc.Drain(ctx)
	if e := s.front.hs.Shutdown(ctx); err == nil {
		err = e
	}
	if e := <-s.front.served; err == nil && !errors.Is(e, http.ErrServerClosed) {
		err = e
	}
	for _, wr := range s.front.wires {
		wr.base.CloseIdleConnections()
	}
	return err
}

// runUnit runs and times one unit of work and derives its counters. A nil
// tracer is the untraced run: no spans and no Progress callback.
func (s *session) runUnit(ctx context.Context, tr *tracer, parent int) (*unit, error) {
	no := s.units
	s.units++
	u := &unit{}
	var err error
	root := tr.begin("unit", parent, no, 0)
	tl := &timeline{marks: make([]mark, 0, s.marks)}
	tl.mark()
	if s.front == nil {
		u.jobs, err = s.submit(ctx, tr, tl, root, no)
	} else {
		u.jobs, err = s.round(ctx, tr, tl, root, no)
	}
	tl.mark()
	tr.end(root)
	if err != nil {
		return nil, err
	}
	u.marks, s.marks = tl.marks, len(tl.marks)
	first, last := tl.marks[0], tl.marks[len(tl.marks)-1]
	u.wall, u.cpu = last.at.Sub(first.at), last.cpu-first.cpu
	if s.front != nil {
		if err := s.fetchReports(ctx, u); err != nil {
			return nil, err
		}
	}
	u.finish(s)
	return u, nil
}

// submit is the in-process unit: one Session.Submit.
func (s *session) submit(ctx context.Context, tr *tracer, tl *timeline, parent, no int) ([]job, error) {
	spec := s.w.clients[0]
	prog, err := spec.program.Build()
	if err != nil {
		return nil, err
	}
	ro := graphh.RunOptions{MaxSupersteps: spec.supersteps}
	id := tr.begin("Session.Submit "+spec.program.Name, parent, no, 0)
	j := job{submitAt: time.Now()}
	j.submitted = j.submitAt
	// The callback runs at every superstep barrier, on the coordinator's
	// goroutine, while this one waits in Submit.
	last := j.submitAt
	ro.Progress = func(graphh.StepStats) {
		now := tl.mark()
		tr.add("superstep", id, no, 0, last, now)
		last = now
	}
	res, err := s.sess.Submit(ctx, prog, ro)
	j.done = time.Now()
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("Session.Submit: %w", err)
	}
	j.values, j.steps, j.servers = res.Values, res.Steps, res.Servers
	return []job{j}, nil
}

// round is the svc-mixed unit: every client submits its job, follows the
// progress stream to EOF and pages the whole result, all at the same time.
func (s *session) round(ctx context.Context, tr *tracer, tl *timeline, parent, no int) ([]job, error) {
	jobs := make([]job, len(s.w.clients))
	errs := make([]error, len(s.w.clients))
	var wg sync.WaitGroup
	for c := range s.w.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine *timeline
			if c == 0 {
				mine = tl
			}
			jobs[c], errs[c] = s.clientJob(ctx, c, tr, mine, parent, no)
		}(c)
	}
	wg.Wait()
	return jobs, errors.Join(errs...)
}

func (s *session) clientJob(ctx context.Context, c int, tr *tracer, tl *timeline, parent, no int) (job, error) {
	spec, cl, wr := s.w.clients[c], s.front.clients[c], s.front.wires[c]
	id := tr.begin("client "+spec.program.Name, parent, no, wr.lane)
	defer tr.end(id)
	wr.tr, wr.tl, wr.parent, wr.unit = tr, tl, id, no
	defer func() { wr.tr, wr.tl = nil, nil }() // the report fetch after the round is not part of it
	pages0, bytes0 := wr.resultPages, wr.resultBytes

	j := job{submitAt: time.Now()}
	st, err := cl.Submit(ctx, api.JobRequest{Program: spec.program, Options: api.RunOptions{MaxSupersteps: spec.supersteps}})
	j.submitted = tl.mark()
	if err != nil {
		return j, fmt.Errorf("client %d submit: %w", c, err)
	}
	j.id = st.ID
	stream, err := cl.Progress(ctx, st.ID)
	if err != nil {
		return j, fmt.Errorf("client %d progress: %w", c, err)
	}
	last := j.submitted
	for {
		_, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			stream.Close()
			return j, fmt.Errorf("client %d progress stream: %w", c, err)
		}
		now := time.Now()
		if j.firstStep.IsZero() {
			j.firstStep = now
		}
		tr.add("superstep", id, no, wr.lane, last, now)
		last = now
	}
	j.done = tl.mark()
	stream.Close()
	if j.values, err = cl.Values(ctx, st.ID); err != nil {
		return j, fmt.Errorf("client %d result: %w", c, err)
	}
	j.fetched = time.Now()
	j.resultPages, j.resultBytes = wr.resultPages-pages0, wr.resultBytes-bytes0
	return j, nil
}

// fetchReports reads each job's final report (step and server statistics)
// and the daemon's counters after the timed round has ended.
func (s *session) fetchReports(ctx context.Context, u *unit) error {
	for c := range u.jobs {
		st, err := s.front.clients[c].Status(ctx, u.jobs[c].id)
		if err != nil {
			return fmt.Errorf("client %d status: %w", c, err)
		}
		if st.State != api.StateDone || st.Report == nil {
			return fmt.Errorf("client %d: job %s ended %s: %s", c, st.ID, st.State, st.Error)
		}
		u.jobs[c].steps, u.jobs[c].servers = st.Report.Steps, st.Report.Servers
	}
	stats, err := s.front.clients[0].Stats(ctx)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	s.rejected, s.served = stats.Jobs.Rejected, stats.BytesServed
	return nil
}
