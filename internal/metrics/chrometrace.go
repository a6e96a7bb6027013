package metrics

import (
	"encoding/json"
	"io"
	"runtime"
)

// Chrome trace-event JSON ("JSON Object Format"), loadable in Perfetto
// (ui.perfetto.dev) and chrome://tracing. Each sampled span becomes one
// complete ("ph":"X") event; each stage gets its own track (tid = stage
// index) named via thread_name metadata events, so the five pipeline stages
// render as parallel swimlanes.

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts,omitempty"`  // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent     `json:"traceEvents"`
	OtherData   map[string]string `json:"otherData,omitempty"`
}

func writeChromeTrace(w io.Writer, tr *Tracer) error {
	spans := tr.snapshot() // nil-safe: empty on a nil tracer
	doc := chromeTrace{
		TraceEvents: make([]chromeEvent, 0, NumStages+len(spans)),
		OtherData:   map[string]string{"generator": "liveupdate/internal/metrics", "go": runtime.Version()},
	}
	for s := 0; s < NumStages; s++ {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "thread_name",
			Ph:   "M",
			Pid:  0,
			Tid:  s,
			Args: map[string]any{"name": Stage(s).String()},
		})
	}
	for _, sp := range spans {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: sp.Stage.String(),
			Ph:   "X",
			Pid:  0,
			Tid:  int(sp.Stage),
			Ts:   float64(sp.StartNs) / 1e3,
			Dur:  float64(sp.DurNs) / 1e3,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
