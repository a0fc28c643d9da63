// Package api defines the wire schema of the graphhd service front-end:
// the JSON request/response envelopes exchanged between remote clients and
// a graphhd daemon, shared by the server (repro/internal/service), the Go
// client (repro/client) and `graphh -json`. One schema, every front-end.
//
// Schema stability: field names are lower_snake and pinned by tests (here
// and in internal/core's stats schema tests); durations travel as integer
// nanoseconds; enum-typed stats fields travel as their String names; vertex
// values travel as Value so non-finite floats (SSSP's unreached +Inf)
// survive JSON, which has no Inf/NaN literals.
//
// Every envelope goes through encoding/json except result pages, the one
// bulk payload: AppendResultPage writes them and DecodeResultPageInto reads
// them, without reflection, in exactly the bytes and with exactly the
// acceptance rules encoding/json has for ResultPage, which stays the
// documented schema and the codec's test oracle.
package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	graphh "repro"
)

// Program names accepted in ProgramSpec.Name.
const (
	ProgramPageRank = "pagerank"
	ProgramSSSP     = "sssp"
	ProgramBFS      = "bfs"
	ProgramWCC      = "wcc"
)

// Job states reported by JobStatus.State. The registry's state machine is
// queued → running → {done, failed, canceled}; a job rejected at admission
// (queue full, draining, dead session) never enters the registry.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// ProgramSpec names a GAB program and its parameters on the wire.
type ProgramSpec struct {
	// Name is one of pagerank, sssp, bfs, wcc.
	Name string `json:"name"`
	// Source is the source vertex of sssp/bfs; ignored by the others.
	Source uint32 `json:"source,omitempty"`
	// Damping overrides pagerank's damping factor; 0 means the default
	// 0.85. Ignored by the other programs.
	Damping float64 `json:"damping,omitempty"`
}

// Build constructs the named program.
func (p ProgramSpec) Build() (graphh.Program, error) {
	switch p.Name {
	case ProgramPageRank:
		if p.Damping != 0 {
			return graphh.NewPageRankDamping(p.Damping), nil
		}
		return graphh.NewPageRank(), nil
	case ProgramSSSP:
		return graphh.NewSSSP(p.Source), nil
	case ProgramBFS:
		return graphh.NewBFS(p.Source), nil
	case ProgramWCC:
		return graphh.NewWCC(), nil
	default:
		return nil, fmt.Errorf("api: unknown program %q (want pagerank, sssp, bfs or wcc)", p.Name)
	}
}

// JobRequest is the body of POST /v1/jobs.
type JobRequest struct {
	Program ProgramSpec `json:"program"`
	Options RunOptions  `json:"options"`
}

// RunOptions are the per-job knobs a remote client may set — the wire form
// of graphh.RunOptions (Progress is served by the progress endpoint instead
// of a callback).
type RunOptions struct {
	// MaxSupersteps bounds the job; 0 inherits the session default.
	MaxSupersteps int `json:"max_supersteps,omitempty"`
	// MessageCodec compresses this job's update broadcasts: raw, snappy,
	// zlib-1 or zlib-3. "" inherits the session default, which is the cost
	// model's choice (snappy only where the modelled link makes it pay,
	// raw otherwise) unless the daemon forces a codec.
	MessageCodec string `json:"message_codec,omitempty"`
	// CheckpointEvery overrides the session checkpoint interval: 0
	// inherits, negative disables, positive checkpoints every K supersteps.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Weight is the job's weighted-round-robin share on a multi-tenant
	// session; 0 means 1.
	Weight int `json:"weight,omitempty"`
}

// maxSupersteps bounds what a remote client may ask for; it exists to keep
// a hostile request from parking a job slot effectively forever.
const maxSupersteps = 1 << 20

// Validate checks a decoded request's invariants: known program name, sane
// numeric ranges. It does not consult session state — the server layers
// admission on top.
func (r *JobRequest) Validate() error {
	if _, err := r.Program.Build(); err != nil {
		return err
	}
	if d := r.Program.Damping; d < 0 || d >= 1 {
		return fmt.Errorf("api: damping %v out of range [0, 1)", d)
	}
	if r.Program.Damping != 0 && r.Program.Name != ProgramPageRank {
		return fmt.Errorf("api: damping is a pagerank parameter (program is %q)", r.Program.Name)
	}
	if r.Program.Source != 0 && r.Program.Name != ProgramSSSP && r.Program.Name != ProgramBFS {
		return fmt.Errorf("api: source is an sssp/bfs parameter (program is %q)", r.Program.Name)
	}
	o := r.Options
	if o.MaxSupersteps < 0 || o.MaxSupersteps > maxSupersteps {
		return fmt.Errorf("api: max_supersteps %d out of range [0, %d]", o.MaxSupersteps, maxSupersteps)
	}
	if o.CheckpointEvery < -1 || o.CheckpointEvery > 255 {
		return fmt.Errorf("api: checkpoint_every %d out of range [-1, 255]", o.CheckpointEvery)
	}
	if o.Weight < 0 || o.Weight > 1<<16 {
		return fmt.Errorf("api: weight %d out of range [0, %d]", o.Weight, 1<<16)
	}
	if o.MessageCodec != "" {
		if _, err := graphh.CodecByName(o.MessageCodec); err != nil {
			return err
		}
	}
	return nil
}

// DecodeJobRequest parses and validates a POST /v1/jobs body. Unknown
// fields are rejected — a misspelled option must not silently become a
// default. The caller bounds the input size (the server reads request
// bodies through http.MaxBytesReader).
func DecodeJobRequest(data []byte) (*JobRequest, error) {
	var req JobRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("api: decoding job request: %w", err)
	}
	// A second document after the first is a malformed request, not data
	// for a future call.
	if dec.More() {
		return nil, fmt.Errorf("api: trailing data after job request")
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// JobStatus is the representation of one job at GET /v1/jobs/{id} (and the
// body of a successful POST /v1/jobs).
type JobStatus struct {
	ID      string      `json:"id"`
	State   string      `json:"state"`
	Program ProgramSpec `json:"program"`
	// Supersteps is the number of supersteps completed so far (live while
	// running, final once terminal).
	Supersteps int `json:"supersteps"`
	// Error carries the failure (or cancellation cause) of a failed or
	// canceled job.
	Error string `json:"error,omitempty"`
	// Report is the final run report; set once the job is done.
	Report *RunReport `json:"report,omitempty"`
}

// Terminal reports whether the job has finished (done, failed or canceled).
func (s *JobStatus) Terminal() bool {
	return s.State == StateDone || s.State == StateFailed || s.State == StateCanceled
}

// RunReport is the stats envelope of a finished job — graphh.Result minus
// the vertex values, which are served paginated. `graphh -json` emits the
// same schema, so a session served locally and one served over the wire
// report identically.
type RunReport struct {
	// Program is the program name the report belongs to.
	Program string `json:"program"`
	// Supersteps executed, and whether the run converged before the bound.
	Supersteps int  `json:"supersteps"`
	Converged  bool `json:"converged"`
	// NumVertices is the length of the value vector (the result total).
	NumVertices int `json:"num_vertices"`
	// DurationNS is the superstep-loop wall time; SetupNS the one-off
	// session setup (tile persistence, cache sizing) — only the first job
	// of a session pays it.
	DurationNS int64 `json:"duration_ns"`
	SetupNS    int64 `json:"setup_ns"`
	// TotalWireBytes and PeakMemoryBytes are the run-level aggregates the
	// paper reports.
	TotalWireBytes  int64 `json:"total_wire_bytes"`
	PeakMemoryBytes int64 `json:"peak_memory_bytes"`
	// Steps has one entry per superstep, Servers one per server; their
	// field names are pinned by internal/core's stats schema tests.
	Steps   []graphh.StepStats   `json:"steps"`
	Servers []graphh.ServerStats `json:"servers"`
}

// ReportFromResult flattens a graphh.Result into the wire report.
func ReportFromResult(program string, res *graphh.Result) *RunReport {
	return &RunReport{
		Program:         program,
		Supersteps:      res.Supersteps,
		Converged:       res.Converged,
		NumVertices:     len(res.Values),
		DurationNS:      int64(res.Duration),
		SetupNS:         int64(res.SetupDuration),
		TotalWireBytes:  res.TotalWireBytes(),
		PeakMemoryBytes: res.PeakMemoryBytes(),
		Steps:           res.Steps,
		Servers:         res.Servers,
	}
}

// ResultPage is one page of a job's final vertex values, served at
// GET /v1/jobs/{id}/result?offset=&limit=. It documents the page's JSON
// schema; the daemon writes the bytes with AppendResultPage and the Go
// client reads them with DecodeResultPageInto, both byte- and
// bit-compatible with encoding/json on this type.
type ResultPage struct {
	JobID string `json:"job_id"`
	// Offset is the index of Values[0] in the full vector; Total its
	// overall length. The page is the last one when offset+len == total.
	Offset int `json:"offset"`
	Total  int `json:"total"`
	// Values are the vertex values of [offset, offset+len) — bit-exact:
	// Value's text form round-trips every float64, including ±Inf.
	Values []Value `json:"values"`
}

// StatsResponse is the body of GET /v1/stats: daemon-level counters plus a
// snapshot of the served session.
type StatsResponse struct {
	// Draining is set once shutdown began: running jobs finish, new
	// submissions are refused with 503.
	Draining bool `json:"draining"`
	// Jobs are the registry counters.
	Jobs JobCounters `json:"jobs"`
	// BytesServed counts HTTP response-body bytes written since boot.
	BytesServed int64 `json:"bytes_served"`
	// Session describes the graphh.Session behind the daemon.
	Session SessionInfo `json:"session"`
}

// JobCounters are the daemon's job-registry counters.
type JobCounters struct {
	// Admitted counts jobs accepted into the registry; Rejected those
	// bounced at admission (queue full, draining, dead session).
	Admitted int64 `json:"admitted"`
	Rejected int64 `json:"rejected"`
	// Queued/Running are current gauges; Done/Failed/Canceled cumulative.
	Queued   int64 `json:"queued"`
	Running  int64 `json:"running"`
	Done     int64 `json:"done"`
	Failed   int64 `json:"failed"`
	Canceled int64 `json:"canceled"`
}

// SessionInfo is the session-level snapshot inside StatsResponse.
type SessionInfo struct {
	// Servers is the simulated cluster size; MaxConcurrentJobs its
	// multi-tenancy level (1 = serial).
	Servers           int `json:"servers"`
	MaxConcurrentJobs int `json:"max_concurrent_jobs"`
	// NumVertices and NumTiles describe the loaded graph.
	NumVertices int `json:"num_vertices"`
	NumTiles    int `json:"num_tiles"`
	// MembershipEpoch is the cluster membership epoch observed at the end
	// of the most recent job (0 before any job finished); it advances on
	// every death and every elastic-membership join.
	MembershipEpoch uint64 `json:"membership_epoch"`
	// Dead lists the server ranks that were dead at the end of the most
	// recent job.
	Dead []int `json:"dead,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Value is a float64 whose JSON form survives non-finite values: finite
// numbers marshal as shortest-round-trip JSON numbers, ±Inf and NaN as the
// strings "+Inf", "-Inf" and "NaN" (JSON has no literals for them, and
// SSSP legitimately reports unreached vertices as +Inf). The numeric text
// form is strconv's 'g'/-1, which parses back to the identical bits.
type Value float64

// MarshalJSON implements json.Marshaler.
func (v Value) MarshalJSON() ([]byte, error) {
	return appendValue(nil, float64(v)), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (v *Value) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "+Inf":
			*v = Value(math.Inf(1))
		case "-Inf":
			*v = Value(math.Inf(-1))
		case "NaN":
			*v = Value(math.NaN())
		default:
			return fmt.Errorf("api: invalid non-finite value %q", s)
		}
		return nil
	}
	f, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return fmt.Errorf("api: invalid value %q", b)
	}
	*v = Value(f)
	return nil
}

// Values converts a float64 vector to its wire form without copying
// semantics surprises (it allocates a new slice).
func Values(fs []float64) []Value {
	out := make([]Value, len(fs))
	for i, f := range fs {
		out[i] = Value(f)
	}
	return out
}

// Floats converts a wire-form vector back to float64s.
func Floats(vs []Value) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = float64(v)
	}
	return out
}
