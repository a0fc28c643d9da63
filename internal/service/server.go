// Package service is the graphhd network front-end: it owns a long-lived
// graphh.Session and serves many remote clients over net/http JSON.
//
// Endpoints (wire types in repro/api):
//
//	POST   /v1/jobs                  submit a program            → 202 JobStatus
//	GET    /v1/jobs                  list retained jobs          → 200 [JobStatus]
//	GET    /v1/jobs/{id}             status + final report       → 200 JobStatus
//	DELETE /v1/jobs/{id}             cancel                      → 202 JobStatus
//	GET    /v1/jobs/{id}/progress    per-superstep NDJSON stream → 200 StepStats lines
//	GET    /v1/jobs/{id}/result      paginated vertex values     → 200 ResultPage
//	GET    /v1/stats                 daemon + session snapshot   → 200 StatsResponse
//	GET    /debug/vars               expvar-style counters       → 200 JSON object
//	GET    /debug/pprof/...          net/http/pprof (Debug only)
//
// Backpressure mapping — the session's typed admission errors become HTTP
// status codes: ErrJobQueueFull → 429 with Retry-After, ErrSessionClosed →
// 503 (shutting down), ErrSessionDead → 503 (crashed; body says so). A
// drain in progress refuses new submissions with 503 before they reach the
// session.
//
// Shutdown is a graceful drain (Drain): stop admitting, let running jobs
// finish until the deadline, cancel the stragglers, then Session.Close.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	graphh "repro"
	"repro/api"
)

// Config tunes a Server. The zero value is usable.
type Config struct {
	// NumVertices/NumTiles describe the partition behind the session; they
	// are reported by GET /v1/stats (the session does not expose them).
	NumVertices int
	NumTiles    int
	// Servers and MaxConcurrentJobs mirror the session's Options for the
	// stats endpoint.
	Servers           int
	MaxConcurrentJobs int
	// SubmitGrace bounds how long POST /v1/jobs waits to distinguish a
	// fast admission failure (429/503) from a successfully queued job
	// (202). The session decides queue-full synchronously, so the window
	// only needs to cover goroutine scheduling; 0 means 150ms.
	SubmitGrace time.Duration
	// ResultPageLimit is the default (and maximum 16× it) page size of the
	// result endpoint; 0 means 4096.
	ResultPageLimit int
	// Debug mounts net/http/pprof under /debug/pprof/.
	Debug bool
}

// Server serves one graphh.Session to remote clients. Create it with New,
// mount Handler, and call Drain exactly once on the way out (Drain closes
// the session).
type Server struct {
	sess *graphh.Session
	cfg  Config
	reg  *registry
	mux  *http.ServeMux

	draining atomic.Bool
	drained  chan struct{}
	// drainErr is the first Drain's Session.Close error; written before
	// drained closes, so every concurrent Drain caller returns it.
	drainErr error

	// bytesServed counts response-body bytes across every endpoint.
	bytesServed atomic.Int64

	// vars is the expvar surface served at /debug/vars. It is a private
	// map (not expvar.Publish'd) so tests can run many Servers in one
	// process; cmd/graphhd publishes it globally under "graphhd".
	vars *expvar.Map
}

// New wraps a session in a Server. The Server takes ownership: Drain closes
// the session.
func New(sess *graphh.Session, cfg Config) *Server {
	if cfg.SubmitGrace <= 0 {
		cfg.SubmitGrace = 150 * time.Millisecond
	}
	if cfg.ResultPageLimit <= 0 {
		cfg.ResultPageLimit = 4096
	}
	if cfg.Servers <= 0 {
		cfg.Servers = 1
	}
	if cfg.MaxConcurrentJobs <= 0 {
		cfg.MaxConcurrentJobs = 1
	}
	s := &Server{
		sess:    sess,
		cfg:     cfg,
		reg:     newRegistry(),
		mux:     http.NewServeMux(),
		drained: make(chan struct{}),
		vars:    new(expvar.Map),
	}
	s.vars.Set("jobs_admitted", expvar.Func(func() any { return s.reg.admitted.Load() }))
	s.vars.Set("jobs_rejected", expvar.Func(func() any { return s.reg.rejected.Load() }))
	s.vars.Set("jobs_running", expvar.Func(func() any { return s.reg.counters().Running }))
	s.vars.Set("queue_depth", expvar.Func(func() any { return s.reg.counters().Queued }))
	s.vars.Set("bytes_served", expvar.Func(func() any { return s.bytesServed.Load() }))

	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/progress", s.handleProgress)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /debug/vars", s.handleVars)
	if cfg.Debug {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Vars returns the expvar map backing /debug/vars, for publishing globally
// (expvar.Publish("graphhd", s.Vars())) in a single-daemon process.
func (s *Server) Vars() *expvar.Map { return s.vars }

// Drain performs the graceful shutdown protocol: stop admitting (new
// submissions get 503), wait for running jobs to finish until ctx expires,
// cancel whatever is left and wait for it to unwind, then close the
// session. Drain is idempotent; concurrent calls wait for the first.
func (s *Server) Drain(ctx context.Context) error {
	if s.draining.Swap(true) {
		<-s.drained
		return s.drainErr
	}
	defer close(s.drained)
	if err := s.reg.waitAll(ctx); err != nil {
		// Deadline hit with jobs still in flight: cancel them and wait for
		// the superstep-edge unwind — Submit always returns after a cancel,
		// so this second wait terminates.
		s.reg.cancelAll()
		_ = s.reg.waitAll(context.Background())
	}
	s.drainErr = s.sess.Close()
	return s.drainErr
}

// Draining reports whether shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// ---- handlers ----

// maxRequestBody bounds POST bodies; a job request is a few hundred bytes.
const maxRequestBody = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "draining: no new jobs admitted")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "reading request: "+err.Error())
		return
	}
	req, err := api.DecodeJobRequest(body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	prog, err := req.Program.Build()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var codec *graphh.Codec
	if req.Options.MessageCodec != "" {
		c, err := graphh.CodecByName(req.Options.MessageCodec)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		codec = &c
	}

	ctx, cancel := context.WithCancel(context.Background())
	jb := s.reg.add(req.Program, cancel)
	ro := graphh.RunOptions{
		MaxSupersteps:   req.Options.MaxSupersteps,
		MessageCodec:    codec,
		CheckpointEvery: req.Options.CheckpointEvery,
		Weight:          req.Options.Weight,
		Progress: func(st graphh.StepStats) {
			if jb.appendStep(st) {
				s.reg.markRunning()
			}
		},
	}

	// Exactly one side finalizes a bounced job: if the handler is still
	// waiting on errCh it removes the entry and returns the HTTP
	// backpressure status; once it has responded 202 the client holds the
	// job ID, so a late admission error (the session died or closed while
	// the job was parked in its admission queue, or the bounce lost the
	// scheduling race with the grace timer) must settle the entry to a
	// terminal state instead — otherwise it stays "queued" forever, Wait
	// spins, and Drain deadlocks. respMu makes the handler's claim and the
	// goroutine's delivery mutually exclusive.
	var respMu sync.Mutex
	responded := false
	errCh := make(chan error, 1)
	go func() {
		defer cancel() // Submit returned; release the job's context
		res, err := s.sess.Submit(ctx, prog, ro)
		if isAdmissionError(err) {
			respMu.Lock()
			if responded {
				respMu.Unlock()
				s.reg.settle(jb, nil, err)
				return
			}
			errCh <- err // buffered; the handler still owns the response
			respMu.Unlock()
			return
		}
		s.reg.settle(jb, res, err)
		errCh <- err
	}()

	// finish writes the response for a Submit return the handler received
	// itself: bounced jobs leave the registry and map to 429/503, anything
	// else (tiny job, immediate hard failure) reports its terminal state.
	finish := func(err error) {
		if isAdmissionError(err) {
			s.reg.remove(jb)
			cancel()
			s.writeAdmissionError(w, err)
			return
		}
		s.writeJSON(w, http.StatusAccepted, jb.status())
	}
	// claimOr202 marks the response as written under respMu — unless the
	// goroutine delivered an admission error in the same instant, in which
	// case the handler still owns it and reports the bounce.
	claimOr202 := func() {
		respMu.Lock()
		select {
		case err := <-errCh:
			respMu.Unlock()
			finish(err)
		default:
			responded = true
			respMu.Unlock()
			s.writeJSON(w, http.StatusAccepted, jb.status())
		}
	}

	grace := time.NewTimer(s.cfg.SubmitGrace)
	defer grace.Stop()
	select {
	case err := <-errCh:
		finish(err)
	case <-jb.runningCh:
		claimOr202()
	case <-grace.C:
		// Still queued behind other jobs; the job is parked in the
		// session's admission queue. Queue-full is decided synchronously so
		// it normally beats this timer, but a session death/close can still
		// bounce the job later — the goroutine settles the entry then.
		claimOr202()
	}
}

// isAdmissionError reports whether Submit bounced the job without running
// it — the errors the daemon maps to HTTP backpressure statuses.
func isAdmissionError(err error) bool {
	return err != nil && (errors.Is(err, graphh.ErrJobQueueFull) ||
		errors.Is(err, graphh.ErrSessionClosed) ||
		errors.Is(err, graphh.ErrSessionDead))
}

func (s *Server) writeAdmissionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, graphh.ErrJobQueueFull):
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, graphh.ErrSessionClosed):
		s.writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, graphh.ErrSessionDead):
		s.writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		s.writeError(w, http.StatusInternalServerError, err.Error())
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	entries := s.reg.list()
	out := make([]*api.JobStatus, 0, len(entries))
	for _, j := range entries {
		st := j.status()
		st.Report = nil // listings stay small; fetch the job for the report
		out = append(out, st)
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, "no such job")
		return
	}
	s.writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if st := j.status(); st.Terminal() {
		s.writeError(w, http.StatusConflict, "job already "+st.State)
		return
	}
	j.requestCancel()
	s.writeJSON(w, http.StatusAccepted, j.status())
}

// handleProgress streams the job's per-superstep StepStats as NDJSON: the
// full history first, then each new step as its barrier completes. The
// stream ends when the job does. If the client disconnects while the job is
// still running, the job is canceled — a watcher that went away mid-run is
// an interactive client whose run should stop (pass ?detach=1 to observe
// without that coupling).
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	j, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, "no such job")
		return
	}
	detach, _ := strconv.ParseBool(r.URL.Query().Get("detach"))
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}
	enc := json.NewEncoder(countWriter{w, &s.bytesServed})
	i := 0
	for {
		steps, more := j.stepsFrom(i)
		for _, st := range steps {
			if err := enc.Encode(st); err != nil {
				if !detach {
					j.requestCancel()
				}
				return
			}
		}
		i += len(steps)
		if len(steps) > 0 && flusher != nil {
			flusher.Flush()
		}
		select {
		case <-j.done:
			// Drain anything appended between our last read and settle.
			steps, _ := j.stepsFrom(i)
			for _, st := range steps {
				_ = enc.Encode(st)
			}
			return
		case <-more:
		case <-r.Context().Done():
			if !detach {
				j.requestCancel()
			}
			return
		}
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, "no such job")
		return
	}
	j.mu.Lock()
	state, res := j.state, j.result
	j.mu.Unlock()
	if state != api.StateDone {
		s.writeError(w, http.StatusConflict, "job is "+state+"; results exist only for done jobs")
		return
	}
	q := r.URL.Query()
	offset, err := parseBounded(q.Get("offset"), 0, 0, len(res.Values))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "offset: "+err.Error())
		return
	}
	limit, err := parseBounded(q.Get("limit"), s.cfg.ResultPageLimit, 1, 16*s.cfg.ResultPageLimit)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "limit: "+err.Error())
		return
	}
	end := offset + limit
	if end > len(res.Values) {
		end = len(res.Values)
	}
	buf := pageBufs.Get().(*[]byte)
	*buf = api.AppendResultPage((*buf)[:0], j.id, offset, len(res.Values), res.Values[offset:end])
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(*buf)))
	w.WriteHeader(http.StatusOK)
	_, _ = countWriter{w, &s.bytesServed}.Write(*buf)
	pageBufs.Put(buf)
}

// pageBufs recycles result-page buffers across requests: a page is written
// whole from one buffer, so a warm buffer serves it without growing.
var pageBufs = sync.Pool{New: func() any { return new([]byte) }}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	epoch, dead := s.reg.membership()
	s.writeJSON(w, http.StatusOK, &api.StatsResponse{
		Draining:    s.draining.Load(),
		Jobs:        s.reg.counters(),
		BytesServed: s.bytesServed.Load(),
		Session: api.SessionInfo{
			Servers:           s.cfg.Servers,
			MaxConcurrentJobs: s.cfg.MaxConcurrentJobs,
			NumVertices:       s.cfg.NumVertices,
			NumTiles:          s.cfg.NumTiles,
			MembershipEpoch:   epoch,
			Dead:              dead,
		},
	})
}

// handleVars serves the Server's private expvar map in expvar's wire
// format, so standard tooling pointed at /debug/vars keeps working even
// though the map is not in the process-global expvar registry.
func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	cw := countWriter{w, &s.bytesServed}
	fmt.Fprintf(cw, "{\n")
	first := true
	s.vars.Do(func(kv expvar.KeyValue) {
		if !first {
			fmt.Fprintf(cw, ",\n")
		}
		first = false
		fmt.Fprintf(cw, "%q: %s", kv.Key, kv.Value)
	})
	fmt.Fprintf(cw, "\n}\n")
}

// ---- plumbing ----

// countWriter counts body bytes into the daemon's bytes_served counter.
type countWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(countWriter{w, &s.bytesServed})
	_ = enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	s.writeJSON(w, code, &api.ErrorResponse{Error: msg})
}

// parseBounded parses a decimal query parameter with a default and an
// inclusive upper bound; "" yields the default.
func parseBounded(s string, def, min, max int) (int, error) {
	if s == "" {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if n < min || n > max {
		return 0, fmt.Errorf("%d out of range [%d, %d]", n, min, max)
	}
	return n, nil
}
