package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the harness into a layer (or, with
// start == end, one event such as a frame delivery). Spans of one
// operation share iter; parent is the span that caused this one, -1 at
// the top. lane is the harness goroutine that recorded it and becomes
// the row in the trace viewer.
type span struct {
	name       string
	start, end int64 // ns since the tracer was made
	parent     int
	iter       int
	lane       int
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced cycles run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, iter, lane int) int {
	return t.beginAt(name, time.Now(), parent, iter, lane)
}

// beginAt opens a span that started at a known instant (a paced
// stream's scheduled arrival).
func (t *tracer) beginAt(name string, at time.Time, parent, iter, lane int) int {
	if t == nil {
		return -1
	}
	start := int64(at.Sub(t.t0))
	if start < 0 {
		start = 0
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, start: start, end: -1, parent: parent, iter: iter, lane: lane})
	t.mu.Unlock()
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].end = now
	d := now - t.spans[id].start
	t.mu.Unlock()
	return time.Duration(d)
}

// add records a span that was timed by the caller.
func (t *tracer) add(name string, start time.Time, d time.Duration, parent, iter, lane int) {
	if t == nil {
		return
	}
	at := int64(start.Sub(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: at, end: at + int64(d), parent: parent, iter: iter, lane: lane})
	t.mu.Unlock()
}

// event records an instant under parent.
func (t *tracer) event(name string, parent, iter, lane int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: now, end: now, parent: parent, iter: iter, lane: lane})
	t.mu.Unlock()
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace-event JSON in the dialect
// obs.ValidateChromeTrace checks: named thread rows, events in timestamp
// order, and a closing mpeg2par_counts record. Load it in Perfetto.
func (t *tracer) writeChrome(w io.Writer, process string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	type ev struct {
		span
		id int
	}
	evs := make([]ev, 0, len(spans))
	lanes := map[int]bool{}
	for i, s := range spans {
		if s.end < s.start {
			continue // never closed: the operation failed mid-way
		}
		evs = append(evs, ev{s, i})
		lanes[s.lane] = true
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].start < evs[j].start })

	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{DisplayTimeUnit: "ms"}
	laneIDs := make([]int, 0, len(lanes))
	for l := range lanes {
		laneIDs = append(laneIDs, l)
	}
	sort.Ints(laneIDs)
	for _, l := range laneIDs {
		doc.TraceEvents = append(doc.TraceEvents,
			chromeEvent{Name: "thread_name", Ph: "M", TID: l, Args: map[string]any{"name": fmt.Sprintf("harness %d", l)}},
			chromeEvent{Name: "thread_sort_index", Ph: "M", TID: l, Args: map[string]any{"sort_index": l}})
	}
	doc.TraceEvents = append(doc.TraceEvents, chromeEvent{Name: "process_name", Ph: "M",
		Args: map[string]any{"name": process}})
	for _, e := range evs {
		ce := chromeEvent{Name: e.name, TID: e.lane, TS: float64(e.start) / 1e3,
			Args: map[string]any{"id": e.id, "parent": e.parent, "iter": e.iter}}
		if e.end == e.start {
			ce.Ph, ce.S = "i", "t"
		} else {
			d := float64(e.end-e.start) / 1e3
			ce.Ph, ce.Dur = "X", &d
		}
		doc.TraceEvents = append(doc.TraceEvents, ce)
	}
	doc.TraceEvents = append(doc.TraceEvents, chromeEvent{Name: "mpeg2par_counts", Ph: "M",
		Args: map[string]any{"spans": len(evs), "dropped": 0}})
	return json.NewEncoder(w).Encode(doc)
}
