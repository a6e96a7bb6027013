package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sync"
)

// Spans are recorded from the benchmark's own files around calls into each
// layer's public functions. Every span is aggregated (count, total, self
// time); the first keepSpans per lane are also retained for the Chrome
// trace-event export, which bounds memory on the multi-million-call node
// workloads.

const keepSpans = 1 << 17

// spanRec is one retained span. Parent indexes the same lane's kept slice
// (-1 for a root); Req is the request's index in the generated schedule.
type spanRec struct {
	Name   int
	Parent int
	Req    int
	Start  int64 // ns since process start (nowNs)
	End    int64
}

type spanAgg struct {
	Count int64
	Total int64 // ns
	Self  int64 // ns: Total minus the part child spans cover
}

type openSpan struct {
	name  int
	kept  int // index in kept, -1 if not retained
	start int64
	child int64
}

// lane records the spans of one goroutine. begin/end nest by call order and
// need no lock; add is for spans timed elsewhere and takes the lane's mutex,
// so goroutines the benchmark does not own (HTTP handlers) can share a lane.
type lane struct {
	tr    *tracer
	id    int
	label string
	stack []openSpan
	agg   []spanAgg
	kept  []spanRec
	mu    sync.Mutex
}

type tracer struct {
	names []string
	lanes []*lane
}

func newTracer(names ...string) *tracer { return &tracer{names: names} }

func (t *tracer) lane(label string) *lane {
	l := &lane{tr: t, id: len(t.lanes), label: label, agg: make([]spanAgg, len(t.names))}
	t.lanes = append(t.lanes, l)
	return l
}

// begin opens a span; the enclosing open span, if any, is its parent.
func (l *lane) begin(name, req int) {
	parent := -1
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1].kept
	}
	start := nowNs()
	kept := -1
	if len(l.kept) < keepSpans {
		kept = len(l.kept)
		l.kept = append(l.kept, spanRec{Name: name, Parent: parent, Req: req, Start: start})
	}
	l.stack = append(l.stack, openSpan{name: name, kept: kept, start: start})
}

// end closes the innermost open span and returns its duration.
func (l *lane) end() int64 {
	end := nowNs()
	n := len(l.stack) - 1
	sp := l.stack[n]
	l.stack = l.stack[:n]
	dur := end - sp.start
	a := &l.agg[sp.name]
	a.Count++
	a.Total += dur
	a.Self += dur - sp.child
	if n > 0 {
		l.stack[n-1].child += dur
	}
	if sp.kept >= 0 {
		l.kept[sp.kept].End = end
	}
	return dur
}

// add records a root span timed by the caller.
func (l *lane) add(name, req int, start, end int64) {
	l.mu.Lock()
	a := &l.agg[name]
	a.Count++
	a.Total += end - start
	a.Self += end - start
	if len(l.kept) < keepSpans {
		l.kept = append(l.kept, spanRec{Name: name, Parent: -1, Req: req, Start: start, End: end})
	}
	l.mu.Unlock()
}

// totals sums the per-name aggregates over every lane.
func (t *tracer) totals() []spanAgg {
	out := make([]spanAgg, len(t.names))
	for _, l := range t.lanes {
		for i, a := range l.agg {
			out[i].Count += a.Count
			out[i].Total += a.Total
			out[i].Self += a.Self
		}
	}
	return out
}

func (a spanAgg) meanNs() float64 {
	if a.Count == 0 {
		return 0
	}
	return float64(a.Total) / float64(a.Count)
}

// writeChrome writes the retained spans as Chrome trace-event JSON (the
// format internal/obs exports, so Perfetto opens it): one complete event per
// span, one track per lane.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts,omitempty"`
		Dur  float64        `json:"dur,omitempty"`
		Args map[string]any `json:"args,omitempty"`
	}
	doc := struct {
		TraceEvents []event           `json:"traceEvents"`
		OtherData   map[string]string `json:"otherData"`
	}{OtherData: map[string]string{"generator": "liveupdate/benchmark", "go": runtime.Version()}}
	for _, l := range t.lanes {
		doc.TraceEvents = append(doc.TraceEvents, event{Name: "thread_name", Ph: "M", Tid: l.id,
			Args: map[string]any{"name": l.label}})
		for i, sp := range l.kept {
			doc.TraceEvents = append(doc.TraceEvents, event{
				Name: t.names[sp.Name], Ph: "X", Tid: l.id,
				Ts: float64(sp.Start) / 1e3, Dur: float64(sp.End-sp.Start) / 1e3,
				Args: map[string]any{"req": sp.Req, "span": i, "parent": sp.Parent},
			})
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
