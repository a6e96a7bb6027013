package main

import (
	"bytes"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1000000, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.90}, {100, 0.90},
		{99, 0.75}, {72, 0.75}, {40, 0.75}, {39, 0.50}, {20, 0.50}, {5, 0.50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		// The picked percentile has at least ten samples beyond it whenever
		// any ladder rung can offer that.
		if beyond := c.n * (100 - int(math.Round(tailPercentile(c.n)*100))) / 100; c.n >= 20 && beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond p%v", c.n, beyond, tailPercentile(c.n)*100)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.01, 1}} {
		if got := quantile(v, c.p); got != c.want {
			t.Errorf("quantile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	s := summarize([]int64{3000, 1000, 2000}, 0.99)
	if s.N != 3 || s.P50 != 2 || s.Tail != 2 || s.TailP != 0.5 {
		t.Errorf("summarize = %+v", s)
	}
}

// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] in Python.
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
}

// A run on a host that is calm for two pieces and 1.5 times slower for three
// reads, at the reference speed, what a calm run reads; as measured it reads
// the slow host.
func TestSteadyScalesPiecesByHostSlowness(t *testing.T) {
	mk := func(slow float64) piece {
		return piece{
			Samples: 1000,
			Wall:    time.Duration(slow * float64(100*time.Millisecond)),
			CPU:     time.Duration(slow * float64(80*time.Millisecond)),
			Lat:     latencySummary{N: 1000, P50: 10 * slow, Tail: 40 * slow, TailP: 0.99},
			Slow:    slow,
		}
	}
	pieces := []piece{mk(1.5), mk(1), mk(1.5), mk(1), mk(1.5)}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9*want }
	at := steady(pieces, true)
	if !near(at.RPS, 10000) || !near(at.CPUms, 80) || !near(at.P50, 10) || !near(at.Tail, 40) || at.TailP != 0.99 {
		t.Errorf("at the reference speed: %+v", at)
	}
	raw := steady(pieces, false)
	if !near(raw.RPS, 10000/1.5) || !near(raw.CPUms, 120) || !near(raw.P50, 15) || !near(raw.Tail, 60) {
		t.Errorf("as measured: %+v", raw)
	}
	if got := steady(nil, true); got != (timing{}) {
		t.Errorf("no pieces: %+v", got)
	}
}

// The timer's pieces carry what stop was given, and the host's slowness is a
// plausible number on any machine that can run the tests.
func TestPieceTimer(t *testing.T) {
	pt := pieceTimer{Lanes: 2}
	for i := 0; i < 2; i++ {
		pt.start()
		pt.stop(8, []int64{3000, 1000}, 0.95)
	}
	if len(pt.Pieces) != 2 || pt.CallNs != 8000 {
		t.Fatalf("%d pieces, %d ns of calls", len(pt.Pieces), pt.CallNs)
	}
	for _, p := range pt.Pieces {
		if p.Samples != 8 || p.Wall <= 0 || p.Lat.N != 2 || p.Lat.P50 != 1 || p.Lat.TailP != 0.5 {
			t.Errorf("piece %+v", p)
		}
		if p.Slow < 0.1 || p.Slow > 50 {
			t.Errorf("host slowness %v", p.Slow)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer("outer", "a", "b")
	ln := tr.lane("test")
	spin := func() {
		for t0 := nowNs(); nowNs()-t0 < 20000; {
		}
	}
	for req := 0; req < 3; req++ {
		ln.begin(0, req)
		spin()
		ln.begin(1, req)
		spin()
		ln.begin(2, req) // nested two deep: covered by a, not by outer directly
		spin()
		ln.end()
		ln.end()
		ln.begin(2, req)
		spin()
		ln.end()
		ln.end()
	}
	ln.add(2, 9, 100, 350)
	tot := tr.totals()
	if tot[0].Count != 3 || tot[1].Count != 3 || tot[2].Count != 7 {
		t.Fatalf("counts = %+v", tot)
	}
	// A span's self time is its duration minus what its direct children
	// cover. b ran under both outer and a, and once as a root (add).
	bUnderA, bUnderOuter := int64(0), int64(0)
	for i, sp := range ln.kept {
		if sp.Name != 2 || sp.Parent < 0 {
			continue
		}
		switch ln.kept[sp.Parent].Name {
		case 1:
			bUnderA += sp.End - sp.Start
		case 0:
			bUnderOuter += sp.End - sp.Start
		}
		if sp.Parent >= i {
			t.Errorf("span %d has parent %d after it", i, sp.Parent)
		}
	}
	if got, want := tot[1].Self, tot[1].Total-bUnderA; got != want {
		t.Errorf("a.Self = %d, want %d", got, want)
	}
	if got, want := tot[0].Self, tot[0].Total-tot[1].Total-bUnderOuter; got != want {
		t.Errorf("outer.Self = %d, want %d", got, want)
	}
	if tot[2].Self != tot[2].Total || tot[2].Total != bUnderA+bUnderOuter+250 {
		t.Errorf("b = %+v, under a %d, under outer %d", tot[2], bUnderA, bUnderOuter)
	}
	if tot[0].Self <= 0 || tot[0].Self >= tot[0].Total {
		t.Errorf("outer self %d of %d", tot[0].Self, tot[0].Total)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "latency", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "rps", Better: "higher", Bound: 0.10}
	auc := metricSpec{Name: "auc", Better: "higher", Bound: 0.12}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c, c, c * 1.01} }
	wide := func(c float64) []float64 { return []float64{c * 0.7, c * 0.8, c, c * 1.2, c * 1.3} }
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, tight(100), tight(100), "ok"},
		{"slower within bound", lower, tight(100), tight(108), "ok"},
		{"slower past bound", lower, tight(100), tight(115), "WORSE"},
		{"faster", lower, tight(100), tight(50), "ok"},
		{"throughput drop past bound", higher, tight(100), tight(85), "WORSE"},
		{"throughput gain", higher, tight(100), tight(150), "ok"},
		{"spread hides the change", lower, tight(100), wide(115), "unresolved"},
		{"spread even when medians agree", higher, wide(100), tight(100), "unresolved"},
		// auc is held to 0.01 absolute, whatever its relative bound says.
		{"auc same", auc, tight(0.54), tight(0.54), "ok"},
		{"auc gap erased", auc, tight(0.547), tight(0.528), "WORSE"},
		{"auc drop inside the noise", auc, tight(0.547), tight(0.540), "ok"},
		{"auc too noisy to tell", auc, tight(0.54), wide(0.54), "unresolved"},
	} {
		if got := judge(c.m, c.a, c.b).Word; got != c.want {
			t.Errorf("%s: %q, want %q", c.name, got, c.want)
		}
	}
}

func TestResultChecks(t *testing.T) {
	o := options{Seed: 1, Scale: 1}
	r := newResult("node_fresh", o)
	for _, m := range endToEnd {
		r.set(m.Name, 1.5)
	}
	r.Attempted = 10
	r.finish()
	if !r.Correct {
		t.Fatalf("clean result judged incorrect: %s", failedChecks(r))
	}
	back, err := parseContractLine(r.contractLine())
	if err != nil || !back.Correct || back.Attempted != 10 || len(back.Metrics) != len(endToEnd) {
		t.Fatalf("contract line round trip: %+v, %v", back, err)
	}

	// A failed request, a NaN metric, a missing metric and a failed ledger
	// check each make the run incorrect.
	for name, spoil := range map[string]func(*result){
		"failed request": func(r *result) { r.Failed = 1 },
		"NaN metric":     func(r *result) { r.set("auc", math.NaN()) },
		"missing metric": func(r *result) { delete(r.Metrics, "setup_s") },
		"ledger":         func(r *result) { r.check("wire ledger accepted == completed", false, "3 vs 2") },
	} {
		r := newResult("node_fresh", o)
		for _, m := range endToEnd {
			r.set(m.Name, 1.5)
		}
		r.Attempted = 10
		spoil(r)
		r.finish()
		if r.Correct {
			t.Errorf("%s: run judged correct", name)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json at the repository root is `-print-spec` verbatim, and the
// tables it is rendered from stay inside the builder's contract.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		t.Errorf("BENCHMARK.json differs from the spec tables; regenerate it with `bash benchmark/run.sh -print-spec > BENCHMARK.json`")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(got))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics", len(workloads), len(endToEnd), len(perLayer))
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q breaks the contract", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v", m.Name, m.Bound)
		}
	}
	if !setup {
		t.Error("setup_s (s, lower) is missing from the end-to-end metrics")
	}
}

// A 1/200-scale run of every workload, untraced and traced: the reported
// metric names are exactly the spec's, the run's own checks pass, and the
// contract line parses. Accuracy checks are exempt: 150 requests teach a
// model nothing.
func TestSmokeAllWorkloads(t *testing.T) {
	exempt := map[string]bool{"auc > 0.47": true, "LiveUpdate auc > DeltaUpdate auc - 0.01": true}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{Seed: 7, Seconds: 0, Trace: traced, Scale: 0.005, Setups: 2, OutDir: t.TempDir()}
			r, err := runWorkload(w.Name, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			var want, got []string
			for _, m := range specsFor(traced) {
				want = append(want, m.Name)
			}
			for n, v := range r.Metrics {
				got = append(got, n)
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s trace=%v: %s = %v", w.Name, traced, n, v)
				}
			}
			sort.Strings(want)
			sort.Strings(got)
			if len(want) != len(got) {
				t.Fatalf("%s trace=%v: %d metrics, want %d", w.Name, traced, len(got), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Errorf("%s trace=%v: metric %q, want %q", w.Name, traced, got[i], want[i])
				}
			}
			if !traced {
				for _, m := range endToEnd {
					if r.Metrics[m.Name] <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want positive", w.Name, m.Name, r.Metrics[m.Name])
					}
				}
			}
			for _, c := range r.Checks {
				if !c.OK && !exempt[c.Name] {
					t.Errorf("%s trace=%v: check %q failed: %s", w.Name, traced, c.Name, c.Detail)
				}
			}
			if r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", w.Name, traced, r.Attempted, r.Failed)
			}
			if _, err := parseContractLine(r.contractLine()); err != nil {
				t.Errorf("%s trace=%v: contract line: %v", w.Name, traced, err)
			}
			if traced {
				if _, err := os.Stat(o.OutDir + "/trace_" + w.Name + ".json"); err != nil {
					t.Errorf("%s: no Chrome trace written: %v", w.Name, err)
				}
			}
		}
	}
	if _, err := runWorkload("nope", options{Scale: 1}); err == nil {
		t.Error("unknown workload accepted")
	}
}
