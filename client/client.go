// Package client is the typed Go client of a graphhd daemon: it speaks the
// JSON wire schema of repro/api over plain net/http, so anything it can do
// a curl script can do too — submit jobs, poll status, stream per-superstep
// progress, page through results, cancel, read daemon stats.
//
//	c := client.New("http://127.0.0.1:8480")
//	st, _ := c.Submit(ctx, api.JobRequest{Program: api.ProgramSpec{Name: api.ProgramPageRank}})
//	st, _ = c.Wait(ctx, st.ID)
//	values, _ := c.Values(ctx, st.ID)
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	graphh "repro"
	"repro/api"
)

// Client talks to one graphhd daemon. The zero value is not usable; create
// it with New. Client is safe for concurrent use.
type Client struct {
	base string
	http *http.Client
}

// New returns a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:8480"). The client uses http.DefaultTransport-backed
// connections with no overall timeout — progress streams are long-lived;
// bound individual calls with their contexts.
func New(baseURL string) *Client {
	return &Client{base: baseURL, http: &http.Client{}}
}

// NewWithHTTPClient uses a caller-provided http.Client (custom transport,
// proxies, test doubles).
func NewWithHTTPClient(baseURL string, hc *http.Client) *Client {
	return &Client{base: baseURL, http: hc}
}

// BaseURL returns the daemon base URL the client was created with.
func (c *Client) BaseURL() string { return c.base }

// APIError is a non-2xx daemon response. It unwraps to typed sentinels
// where the wire status encodes one: 429 → graphh.ErrJobQueueFull, so
// errors.Is(err, graphh.ErrJobQueueFull) works across the wire exactly as
// it does in-process.
type APIError struct {
	// StatusCode is the HTTP status.
	StatusCode int
	// Message is the daemon's error body.
	Message string
	// RetryAfter is the parsed Retry-After hint, when present.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("graphhd: %d %s: %s", e.StatusCode, http.StatusText(e.StatusCode), e.Message)
}

// Unwrap maps wire statuses back onto the session's typed sentinels.
func (e *APIError) Unwrap() error {
	if e.StatusCode == http.StatusTooManyRequests {
		return graphh.ErrJobQueueFull
	}
	return nil
}

// ErrJobEvicted reports that a job disappeared from the daemon's registry
// between two requests: the daemon retains only a bounded number of
// terminal jobs (FIFO eviction), so a done job paged too slowly — or
// fetched long after it finished — can be gone mid-pagination. The partial
// data is unrecoverable; resubmit the job.
var ErrJobEvicted = errors.New("graphhd: job evicted from the daemon's retention window")

// IsUnavailable reports whether err is a daemon 503 — draining, closed or
// dead session.
func IsUnavailable(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.StatusCode == http.StatusServiceUnavailable
}

// Submit posts a job and returns its status — state queued or running for a
// long job, possibly already terminal for a fast one. A full admission
// queue surfaces as an *APIError that errors.Is-matches
// graphh.ErrJobQueueFull and carries the daemon's Retry-After.
func (c *Client) Submit(ctx context.Context, req api.JobRequest) (*api.JobStatus, error) {
	body, err := json.Marshal(&req)
	if err != nil {
		return nil, err
	}
	var st api.JobStatus
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", body, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Status fetches one job.
func (c *Client) Status(ctx context.Context, id string) (*api.JobStatus, error) {
	var st api.JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Jobs lists the daemon's retained jobs (reports elided).
func (c *Client) Jobs(ctx context.Context) ([]*api.JobStatus, error) {
	var out []*api.JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Cancel requests cancellation; the job unwinds at its next superstep edge.
func (c *Client) Cancel(ctx context.Context, id string) (*api.JobStatus, error) {
	var st api.JobStatus
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Stats fetches the daemon + session snapshot.
func (c *Client) Stats(ctx context.Context) (*api.StatsResponse, error) {
	var st api.StatsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Wait polls until the job is terminal (or ctx expires) and returns its
// final status.
func (c *Client) Wait(ctx context.Context, id string) (*api.JobStatus, error) {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return nil, err
		}
		if st.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-tick.C:
		}
	}
}

// Result fetches one page of a done job's vertex values.
func (c *Client) Result(ctx context.Context, id string, offset, limit int) (*api.ResultPage, error) {
	var body bytes.Buffer
	if err := c.resultPage(ctx, id, offset, limit, &body); err != nil {
		return nil, err
	}
	jobID, off, total, values, err := api.DecodeResultPageInto(nil, body.Bytes())
	if err != nil {
		return nil, fmt.Errorf("client: job %s: result page at offset %d: %w", id, offset, err)
	}
	return &api.ResultPage{JobID: jobID, Offset: off, Total: total, Values: api.Values(values)}, nil
}

// Values pages through the job's whole value vector and returns it —
// bit-identical to the in-process Result.Values (the wire form round-trips
// every float64, ±Inf included). A 404 after the first page means the
// daemon evicted the job mid-pagination (bounded terminal-job retention);
// that surfaces as an error wrapping ErrJobEvicted. The daemon's pages are
// checked, not trusted: a negative or changing total, a page that does not
// start where the last one ended, values past the total and a vector that
// ends short of it are errors, and the vector grows only with the values
// actually received.
func (c *Client) Values(ctx context.Context, id string) ([]float64, error) {
	var (
		out   []float64
		body  bytes.Buffer
		total = -1
	)
	for {
		at := len(out)
		if err := c.resultPage(ctx, id, at, 0, &body); err != nil {
			var ae *APIError
			if at > 0 && errors.As(err, &ae) && ae.StatusCode == http.StatusNotFound {
				return nil, fmt.Errorf("%w after %d of its values were read: %v", ErrJobEvicted, at, err)
			}
			return nil, err
		}
		_, offset, pageTotal, values, err := api.DecodeResultPageInto(out, body.Bytes())
		if err == nil {
			switch {
			case offset != at:
				err = fmt.Errorf("page starts at offset %d", offset)
			case pageTotal < 0:
				err = fmt.Errorf("negative total %d", pageTotal)
			case total >= 0 && pageTotal != total:
				err = fmt.Errorf("total changed from %d to %d", total, pageTotal)
			case len(values) > pageTotal:
				err = fmt.Errorf("values run to %d, past the total %d", len(values), pageTotal)
			case len(values) == at && at < pageTotal:
				err = fmt.Errorf("empty page before the total %d", pageTotal)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("client: job %s: result page at offset %d: %w", id, at, err)
		}
		out, total = values, pageTotal
		if len(out) == total {
			return out, nil
		}
	}
}

// resultPage reads the raw body of one result page into buf.
func (c *Client) resultPage(ctx context.Context, id string, offset, limit int, buf *bytes.Buffer) error {
	p := "/v1/jobs/" + url.PathEscape(id) + "/result?offset=" + strconv.Itoa(offset)
	if limit > 0 {
		p += "&limit=" + strconv.Itoa(limit)
	}
	resp, err := c.send(ctx, http.MethodGet, p, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return err
}

// ProgressStream is a live per-superstep statistics stream. Read it with
// Next until (graphh.StepStats{}, io.EOF); always Close it. Closing (or
// abandoning) the stream before the job finished cancels the job unless it
// was opened with Detached.
type ProgressStream struct {
	body io.ReadCloser
	sc   *bufio.Scanner
}

// ProgressOption tunes Progress.
type ProgressOption func(*url.Values)

// Detached observes progress without the disconnect-cancels-job coupling.
func Detached() ProgressOption {
	return func(v *url.Values) { v.Set("detach", "1") }
}

// Progress opens the job's NDJSON progress stream: the history so far, then
// one StepStats per completed superstep. The stream ends when the job does.
func (c *Client) Progress(ctx context.Context, id string, opts ...ProgressOption) (*ProgressStream, error) {
	q := url.Values{}
	for _, o := range opts {
		o(&q)
	}
	p := "/v1/jobs/" + url.PathEscape(id) + "/progress"
	if len(q) > 0 {
		p += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+p, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &ProgressStream{body: resp.Body, sc: sc}, nil
}

// Next returns the next superstep's statistics, or io.EOF when the job
// finished and the stream is drained.
func (p *ProgressStream) Next() (graphh.StepStats, error) {
	for p.sc.Scan() {
		line := bytes.TrimSpace(p.sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var st graphh.StepStats
		if err := json.Unmarshal(line, &st); err != nil {
			return graphh.StepStats{}, fmt.Errorf("client: progress line: %w", err)
		}
		return st, nil
	}
	if err := p.sc.Err(); err != nil {
		return graphh.StepStats{}, err
	}
	return graphh.StepStats{}, io.EOF
}

// Close releases the stream's connection. Closing before the job finished
// counts as a disconnect: the daemon cancels the job (unless Detached).
func (p *ProgressStream) Close() error { return p.body.Close() }

// do performs one JSON request/response round trip.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	resp, err := c.send(ctx, method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// send performs one request and returns the response of a 2xx status,
// whose body the caller must close; any other status becomes an *APIError.
func (c *Client) send(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	return resp, nil
}

// decodeError turns a non-2xx response into an *APIError.
func decodeError(resp *http.Response) error {
	ae := &APIError{StatusCode: resp.StatusCode}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	var body api.ErrorResponse
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err := json.Unmarshal(raw, &body); err == nil && body.Error != "" {
		ae.Message = body.Error
	} else {
		ae.Message = string(bytes.TrimSpace(raw))
	}
	return ae
}
