// Tests of the typed client against a live graphhd service: an httptest
// server wraps internal/service over a real session, so every call crosses
// loopback HTTP and the JSON wire schema exactly as a remote caller's does.
package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	graphh "repro"
	"repro/api"
	"repro/client"
	"repro/internal/service"
)

// daemon is one test deployment: the client, the service behind it, and the
// partition and options an in-process reference run needs.
type daemon struct {
	c    *client.Client
	svc  *service.Server
	p    *graphh.Partitioned
	opts graphh.Options
}

// newDaemon opens a session over a small symmetrized graph and serves it on
// loopback HTTP. The cleanup drains the service, which closes the session.
func newDaemon(t *testing.T, opts graphh.Options, cfg service.Config) *daemon {
	t.Helper()
	g := graphh.GenerateRMAT(300, 2500, 33).Symmetrize()
	p, err := graphh.Partition(g, graphh.PartitionOptions{TileSize: 400})
	if err != nil {
		t.Fatal(err)
	}
	opts.WorkDir = t.TempDir()
	sess, err := graphh.Open(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NumVertices = int(g.NumVertices)
	cfg.NumTiles = p.NumTiles()
	cfg.Servers = opts.Servers
	cfg.MaxConcurrentJobs = opts.MaxConcurrentJobs
	svc := service.New(sess, cfg)
	hs := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = svc.Drain(ctx)
		hs.Close()
	})
	return &daemon{c: client.New(hs.URL), svc: svc, p: p, opts: opts}
}

// longJob is a PageRank bounded far beyond the test's patience: on a session
// whose own bound is higher still, it runs until cancelled.
func longJob() api.JobRequest {
	return api.JobRequest{
		Program: api.ProgramSpec{Name: api.ProgramPageRank},
		Options: api.RunOptions{MaxSupersteps: 100000},
	}
}

// TestValuesMatchInProcessRun: Submit, Wait and Values paginated over several
// result pages return the in-process Run's vector bit for bit.
func TestValuesMatchInProcessRun(t *testing.T) {
	d := newDaemon(t, graphh.Options{Servers: 2, MaxSupersteps: 10}, service.Config{ResultPageLimit: 64})
	ctx := context.Background()
	st, err := d.c.Submit(ctx, api.JobRequest{Program: api.ProgramSpec{Name: api.ProgramPageRank}})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = d.c.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	page, err := d.c.Result(ctx, st.ID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total <= 2*len(page.Values) {
		t.Fatalf("first page holds %d of %d values; the test needs at least three pages", len(page.Values), page.Total)
	}
	got, err := d.c.Values(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}

	ref := d.opts
	ref.WorkDir = t.TempDir()
	want, err := graphh.Run(d.p, graphh.NewPageRank(), ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want.Values) {
		t.Fatalf("got %d values, want %d", len(got), len(want.Values))
	}
	for v := range want.Values {
		if math.Float64bits(got[v]) != math.Float64bits(want.Values[v]) {
			t.Fatalf("vertex %d: remote %v, in-process %v", v, got[v], want.Values[v])
		}
	}
}

// TestCancel: a cancelled job ends in state canceled, and the session runs
// the next job.
func TestCancel(t *testing.T) {
	d := newDaemon(t, graphh.Options{Servers: 2, MaxSupersteps: 200000}, service.Config{})
	ctx := context.Background()
	st, err := d.c.Submit(ctx, longJob())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if st, err = d.c.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateCanceled {
		t.Fatalf("cancelled job ended %s", st.State)
	}
	next, err := d.c.Submit(ctx, api.JobRequest{Program: api.ProgramSpec{Name: api.ProgramWCC}})
	if err != nil {
		t.Fatal(err)
	}
	if next, err = d.c.Wait(ctx, next.ID); err != nil || next.State != api.StateDone {
		t.Fatalf("job after the cancel: %v %+v", err, next)
	}
}

// TestProgress: the progress stream yields one StepStats per superstep, in
// order, and ends with io.EOF when the job does.
func TestProgress(t *testing.T) {
	d := newDaemon(t, graphh.Options{Servers: 2}, service.Config{})
	ctx := context.Background()
	st, err := d.c.Submit(ctx, api.JobRequest{
		Program: api.ProgramSpec{Name: api.ProgramPageRank},
		Options: api.RunOptions{MaxSupersteps: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := d.c.Progress(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	var steps []graphh.StepStats
	for {
		s, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, s)
	}
	if st, err = d.c.Wait(ctx, st.ID); err != nil || st.State != api.StateDone {
		t.Fatalf("job: %v %+v", err, st)
	}
	if len(steps) != st.Supersteps || len(steps) != 8 {
		t.Fatalf("stream carried %d steps, job ran %d, want 8", len(steps), st.Supersteps)
	}
	for i, s := range steps {
		if s.Superstep != i {
			t.Fatalf("step %d of the stream is superstep %d", i, s.Superstep)
		}
	}
}

// TestAPIErrors: a full admission queue is a 429 that matches
// graphh.ErrJobQueueFull and carries Retry-After; a draining daemon is a 503
// that IsUnavailable recognises.
func TestAPIErrors(t *testing.T) {
	d := newDaemon(t, graphh.Options{Servers: 2, MaxSupersteps: 200000, MaxConcurrentJobs: 2, MaxQueuedJobs: 1}, service.Config{})
	ctx := context.Background()
	var ids []string
	for i := 0; i < 3; i++ { // two running and one queued fill the session
		st, err := d.c.Submit(ctx, longJob())
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, st.ID)
	}
	_, err := d.c.Submit(ctx, longJob())
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit to a full queue: got %v, want an APIError with status 429", err)
	}
	if !errors.Is(err, graphh.ErrJobQueueFull) || ae.RetryAfter <= 0 || client.IsUnavailable(err) {
		t.Fatalf("429 %+v: want ErrJobQueueFull, a Retry-After hint, and not unavailable", ae)
	}
	for _, id := range ids {
		if _, err := d.c.Cancel(ctx, id); err != nil {
			t.Fatal(err)
		}
	}

	if err := d.svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	_, err = d.c.Submit(ctx, longJob())
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable || !client.IsUnavailable(err) {
		t.Fatalf("submit to a drained daemon: got %v, want a 503 that IsUnavailable matches", err)
	}
	if errors.Is(err, graphh.ErrJobQueueFull) {
		t.Fatal("a 503 must not match ErrJobQueueFull")
	}
}

// TestRemovedOptionRejected: the request decoder refuses unknown fields, so a
// client that still sends the removed "lockstep" option gets a 400 naming it
// instead of a silently different job.
func TestRemovedOptionRejected(t *testing.T) {
	d := newDaemon(t, graphh.Options{Servers: 1}, service.Config{})
	body := `{"program":{"name":"pagerank"},"options":{"lockstep":true}}`
	resp, err := http.Post(d.c.BaseURL()+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("got status %d, want 400", resp.StatusCode)
	}
	var er api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, `"lockstep"`) {
		t.Fatalf("error %q does not name the field", er.Error)
	}
}

// TestValuesRejectsHostilePages: Values checks each result page against the
// pages before it instead of trusting the daemon — a negative or huge total
// must neither panic nor allocate for values never sent, and every lie ends
// in an error that names the job and the page offset.
func TestValuesRejectsHostilePages(t *testing.T) {
	cases := []struct {
		name  string
		pages map[string]string // keyed by the requested offset
		want  string
	}{
		{"negative total",
			map[string]string{"0": `{"job_id":"j1","offset":0,"total":-1,"values":[]}`},
			"offset 0: negative total -1"},
		{"huge total",
			map[string]string{
				"0": `{"job_id":"j1","offset":0,"total":1099511627776,"values":[0.5]}`,
				"1": `{"job_id":"j1","offset":1,"total":1099511627776,"values":[]}`,
			},
			"offset 1: empty page before the total 1099511627776"},
		{"offset not where the last page ended",
			map[string]string{
				"0": `{"job_id":"j1","offset":0,"total":4,"values":[1,2]}`,
				"2": `{"job_id":"j1","offset":0,"total":4,"values":[1,2]}`,
			},
			"offset 2: page starts at offset 0"},
		{"total changes between pages",
			map[string]string{
				"0": `{"job_id":"j1","offset":0,"total":4,"values":[1,2]}`,
				"2": `{"job_id":"j1","offset":2,"total":5,"values":[3,4]}`,
			},
			"offset 2: total changed from 4 to 5"},
		{"values past the total",
			map[string]string{"0": `{"job_id":"j1","offset":0,"total":1,"values":[1,2]}`},
			"offset 0: values run to 2, past the total 1"},
		{"malformed page",
			map[string]string{"0": `{"job_id":"j1","offset":0,"total":2,"values":[1,]}`},
			"offset 0: api: malformed result page"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				page, ok := tc.pages[r.URL.Query().Get("offset")]
				if !ok {
					http.Error(w, "unexpected page request", http.StatusTeapot)
					return
				}
				_, _ = io.WriteString(w, page)
			}))
			defer hs.Close()
			vals, err := client.New(hs.URL).Values(context.Background(), "j1")
			if err == nil {
				t.Fatalf("accepted %d values from a hostile daemon", len(vals))
			}
			if msg := err.Error(); !strings.Contains(msg, "job j1: result page at "+tc.want) {
				t.Fatalf("error %q, want it to name the job and %q", msg, tc.want)
			}
		})
	}
}
