package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the harness around a call into the
// system. Spans of one unit of work share Unit; Lane separates concurrent
// callers (the two clients of svc-mixed) so their spans do not interleave.
type span struct {
	Name       string
	Start, End time.Duration // since the tracer started
	Parent     int           // index of the causing span, -1 for a root
	Unit       int
	Lane       int
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run passes nil and pays one comparison per call.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, unit, lane int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Unit: unit, Lane: lane})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose ends were observed by the caller.
func (t *tracer) add(name string, parent, unit, lane int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0), End: end.Sub(t.t0), Parent: parent, Unit: unit, Lane: lane})
	t.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Children may overlap each other (the two
// clients of a round), so their union is what is subtracted.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfMillisByName sums self time per span name, the table that says where
// the time outside the children went.
func selfMillisByName(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for i, d := range selfTimes(spans) {
		out[spans[i].Name] += float64(d) / float64(time.Millisecond)
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// readable by chrome://tracing and ui.perfetto.dev.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func writeChromeTrace(path, workload string, spans []span, self []time.Duration) error {
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		events[i] = chromeEvent{
			Name: s.Name, Cat: workload, Ph: "X",
			TS:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			PID: 1, TID: s.Lane,
			Args: map[string]any{"span": i, "parent": s.Parent, "unit": s.Unit, "self_us": float64(self[i]) / float64(time.Microsecond)},
		}
	}
	b, err := json.Marshal(map[string]any{"displayTimeUnit": "ms", "traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
