package metrics

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestStageString(t *testing.T) {
	want := []string{"route", "queue_wait", "forward", "commit", "train_tick", "sync_publish"}
	if len(want) != NumStages {
		t.Fatalf("NumStages = %d, want %d", NumStages, len(want))
	}
	for i, w := range want {
		if got := Stage(i).String(); got != w {
			t.Fatalf("Stage(%d) = %q, want %q", i, got, w)
		}
	}
	if Stage(200).String() != "unknown" {
		t.Fatal("out-of-range stage must stringify as unknown")
	}
}

func TestNilTelemetryAndTracerAreSafe(t *testing.T) {
	var tel *Telemetry
	if tel.Registry() != nil || tel.Tracer() != nil {
		t.Fatal("nil telemetry accessors must return nil")
	}
	var buf bytes.Buffer
	if err := tel.WriteMetrics(&buf); err != nil {
		t.Fatalf("nil WriteMetrics: %v", err)
	}
	if err := tel.WriteVars(&buf); err != nil {
		t.Fatalf("nil WriteVars: %v", err)
	}
	if err := tel.WriteTrace(&buf); err != nil {
		t.Fatalf("nil WriteTrace: %v", err)
	}

	var tr *Tracer
	if got := tr.StageStart(StageForward); got != -1 {
		t.Fatalf("nil tracer StageStart = %d, want -1", got)
	}
	tr.StageEnd(StageForward, 123) // must not panic
	if tr.snapshot() != nil {
		t.Fatal("nil tracer snapshot must be nil")
	}
	if tr.StageTotals() != ([NumStages]StageAgg{}) {
		t.Fatal("nil tracer totals must be zero")
	}
	var c *Counter
	c.Inc()
	if c.load() != 0 {
		t.Fatal("nil counter must read 0")
	}
	var h *Histogram
	h.Observe(1) // must not panic
}

func TestTracerSamplesOneInN(t *testing.T) {
	tr := newTracer(4, 64)
	sampled := 0
	for i := 0; i < 16; i++ {
		if start := tr.StageStart(StageForward); start >= 0 {
			tr.StageEnd(StageForward, start)
			sampled++
		}
	}
	if sampled != 4 {
		t.Fatalf("sampled %d of 16 at 1-in-4, want 4", sampled)
	}
	// Stages sample independently: StageCommit has its own counter.
	if start := tr.StageStart(StageCommit); start >= 0 {
		t.Fatal("first commit occurrence at 1-in-4 must not be sampled")
	}
	tot := tr.StageTotals()
	if tot[StageForward].Count != 4 {
		t.Fatalf("forward agg count = %d, want 4", tot[StageForward].Count)
	}
	if tot[StageForward].SumNs < 0 {
		t.Fatalf("negative duration sum %d", tot[StageForward].SumNs)
	}
}

func TestTracerSnapshotOrderAndWrap(t *testing.T) {
	tr := newTracer(1, 8) // tiny ring to force a lap
	for i := 0; i < 20; i++ {
		start := tr.StageStart(Stage(i % NumStages))
		tr.StageEnd(Stage(i%NumStages), start)
	}
	spans := tr.snapshot()
	if len(spans) == 0 || len(spans) > 8 {
		t.Fatalf("snapshot has %d spans, want 1..8", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].StartNs < spans[i-1].StartNs {
			t.Fatalf("snapshot not sorted by start: %v", spans)
		}
	}
	tot := tr.StageTotals()
	var n uint64
	for _, a := range tot {
		n += a.Count
	}
	if n != 20 {
		t.Fatalf("aggregates saw %d spans, want 20 (ring wrap must not drop totals)", n)
	}
}

// TestTracerConcurrentSnapshot hammers the ring from many writers while a
// reader snapshots — the seqlock must keep this race-clean (this test's
// teeth are under -race in CI) and every surfaced span plausible.
func TestTracerConcurrentSnapshot(t *testing.T) {
	tr := newTracer(1, 64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				st := Stage(i % NumStages)
				tr.StageEnd(st, tr.StageStart(st))
			}
		}(w)
	}
	deadline := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) {
		for _, sp := range tr.snapshot() {
			if int(sp.Stage) >= NumStages || sp.DurNs < 0 || sp.StartNs < 0 {
				close(stop)
				wg.Wait()
				t.Fatalf("implausible span surfaced: %+v", sp)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestTracerHotPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are asserted without the race detector (CI alloc-gate)")
	}
	tr := newTracer(1, 64) // sample everything: worst case
	allocs := testing.AllocsPerRun(1000, func() {
		start := tr.StageStart(StageForward)
		tr.StageEnd(StageForward, start)
	})
	if allocs != 0 {
		t.Fatalf("traced stage timing allocates %v/op, want 0", allocs)
	}
}

func TestRegistryGetOrCreateSharesInstruments(t *testing.T) {
	r := newRegistry()
	a := r.Counter("serve_total", "requests")
	b := r.Counter("serve_total", "requests")
	if a != b {
		t.Fatal("same-name counters must be the same instrument")
	}
	a.Inc()
	b.v.Add(2)
	if a.load() != 3 {
		t.Fatalf("shared counter = %d, want 3", a.load())
	}
	h1 := r.Histogram("lat", "latency", 0, 1, 10)
	h2 := r.Histogram("lat", "latency", 0, 1, 10)
	if h1 != h2 {
		t.Fatal("same-name histograms must be the same instrument")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict must panic")
		}
	}()
	r.GaugeFunc("serve_total", "oops", func() float64 { return 0 })
}

func TestRegistrySnapshotSortedAndTyped(t *testing.T) {
	r := newRegistry()
	r.Counter("zzz", "last").v.Add(7)
	r.GaugeFunc("aaa", "first", func() float64 { return 1.5 })
	r.CounterFunc("mmm", "middle", func() uint64 { return 42 })
	h := r.Histogram("hhh", "dist", 0, 10, 5)
	h.Observe(3)
	h.Observe(math.NaN()) // dropped
	h.Observe(99)         // above Max: counted, in no finite bucket

	snap := r.snapshot()
	names := make([]string, len(snap))
	for i, m := range snap {
		names[i] = m.Name
	}
	if got, want := strings.Join(names, ","), "aaa,hhh,mmm,zzz"; got != want {
		t.Fatalf("snapshot order %q, want %q", got, want)
	}
	for _, m := range snap {
		switch m.Name {
		case "zzz":
			if m.Kind != kindCounter || m.Value != 7 {
				t.Fatalf("zzz: %+v", m)
			}
		case "aaa":
			if m.Kind != kindGauge || m.Value != 1.5 {
				t.Fatalf("aaa: %+v", m)
			}
		case "mmm":
			if m.Kind != kindCounter || m.Value != 42 {
				t.Fatalf("mmm: %+v", m)
			}
		case "hhh":
			if m.Kind != kindHistogram || m.Hist == nil {
				t.Fatalf("hhh: %+v", m)
			}
			if m.Hist.Count != 2 {
				t.Fatalf("hhh count = %d, want 2 (NaN dropped)", m.Hist.Count)
			}
			if m.Hist.Sum != 102 {
				t.Fatalf("hhh sum = %v, want 102", m.Hist.Sum)
			}
			if m.Hist.Buckets[1] != 1 || m.Hist.Buckets[4] != 0 {
				t.Fatalf("3 belongs in (2, 4] and 99 above every bucket: %v", m.Hist.Buckets)
			}
		}
	}
}

func TestPrometheusEscapingAndNonFinite(t *testing.T) {
	r := newRegistry()
	r.GaugeFunc("nan_gauge", "can be NaN", func() float64 { return math.NaN() })
	r.GaugeFunc("inf_gauge", "line1\nline2 with back\\slash", func() float64 { return math.Inf(1) })
	r.GaugeFunc("neginf_gauge", "negative", func() float64 { return math.Inf(-1) })

	var buf bytes.Buffer
	if err := writePrometheus(&buf, r.snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"nan_gauge NaN\n",
		"inf_gauge +Inf\n",
		"neginf_gauge -Inf\n",
		`# HELP inf_gauge line1\nline2 with back\\slash` + "\n",
		"# TYPE nan_gauge gauge\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestPrometheusHistogramConventions(t *testing.T) {
	r := newRegistry()
	h := r.Histogram("lat_seconds", "latency", 0, 1, 4)
	for _, v := range []float64{0.1, 0.1, 0.4, 0.9, 5} { // 5 > Max: only le="+Inf"
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := writePrometheus(&buf, r.snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{le="0.25"} 2` + "\n", // cumulative
		`lat_seconds_bucket{le="0.5"} 3` + "\n",
		`lat_seconds_bucket{le="0.75"} 3` + "\n",
		`lat_seconds_bucket{le="1"} 4` + "\n",
		`lat_seconds_bucket{le="+Inf"} 5` + "\n",
		"lat_seconds_sum 6.5\n",
		"lat_seconds_count 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestPrometheusGolden locks the full exposition output for a representative
// registry against testdata/metrics.golden (regenerate with -update).
func TestPrometheusGolden(t *testing.T) {
	r := newRegistry()
	r.Counter("liveupdate_serve_requests_total", "Requests served by the fleet.").v.Add(1234)
	r.CounterFunc("liveupdate_sync_epochs_total", "Completed sync epochs.", func() uint64 { return 17 })
	r.GaugeFunc("liveupdate_fleet_members", "Active members in the fleet view.", func() float64 { return 3 })
	r.GaugeFunc("liveupdate_weird_gauge", "Escapes: back\\slash and\nnewline; value NaN.", func() float64 { return math.NaN() })
	h := r.Histogram("liveupdate_serve_latency_seconds", "Virtual serve latency.", 0, 0.02, 4)
	for _, v := range []float64{0.001, 0.004, 0.004, 0.011, 0.5} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := writePrometheus(&buf, r.snapshot()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("output drifted from golden.\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestChromeTraceExport(t *testing.T) {
	tel := NewTelemetry(TelemetryConfig{SampleEvery: 1, SpanRing: 64})
	tr := tel.Tracer()
	for i := 0; i < 10; i++ {
		st := Stage(i % NumStages)
		tr.StageEnd(st, tr.StageStart(st))
	}
	var buf bytes.Buffer
	if err := tel.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Tid  int     `json:"tid"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var meta, complete int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			if ev.Dur < 0 {
				t.Fatalf("negative duration: %+v", ev)
			}
		}
	}
	if meta != NumStages {
		t.Fatalf("%d thread_name metadata events, want %d", meta, NumStages)
	}
	if complete != 10 {
		t.Fatalf("%d complete events, want 10", complete)
	}
}

func TestWriteVarsIsValidJSON(t *testing.T) {
	tel := NewTelemetry(TelemetryConfig{})
	tel.Registry().Counter("c_total", "counter").v.Add(5)
	tel.Registry().GaugeFunc("g_nan", "gauge", func() float64 { return math.NaN() })
	tel.Registry().Histogram("h", "hist", 0, 1, 2).Observe(0.3)

	var buf bytes.Buffer
	if err := tel.WriteVars(&buf); err != nil {
		t.Fatal(err)
	}
	var vars map[string]any
	if err := json.Unmarshal(buf.Bytes(), &vars); err != nil {
		t.Fatalf("vars not valid JSON: %v\n%s", err, buf.String())
	}
	if vars["c_total"] != float64(5) {
		t.Fatalf("c_total = %v", vars["c_total"])
	}
	if vars["g_nan"] != "NaN" {
		t.Fatalf("NaN gauge must render as string: %v", vars["g_nan"])
	}
	if _, ok := vars["memstats"]; !ok {
		t.Fatal("missing memstats block")
	}
}
