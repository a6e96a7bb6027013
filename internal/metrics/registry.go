package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// metricKind is the instrument class of a registered metric.
type metricKind uint8

const (
	// kindCounter is a monotone uint64 counter.
	kindCounter metricKind = iota
	// kindGauge is an instantaneous float64 value.
	kindGauge
	// kindHistogram is a fixed-bucket distribution with sum and count.
	kindHistogram
)

// String returns the Prometheus TYPE keyword for the kind.
func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Histogram is a fixed-width-bucket histogram with a running sum and count.
// Bucket i holds the values v with upperEdge(i-1) < v ≤ upperEdge(i) — the
// Prometheus "le" convention, on the very edges the exposition renders — and
// bucket 0 also takes everything below Min. Values above Max (and +Inf)
// count only toward the total, i.e. the exposition's le="+Inf" bucket.
// Observe takes one short mutex hold and does not allocate; a nil
// *Histogram no-ops.
type Histogram struct {
	mu       sync.Mutex
	min, max float64
	width    float64
	buckets  []uint64
	count    uint64
	sum      float64
}

func newHistogram(min, max float64, n int) *Histogram {
	if n <= 0 || !(max > min) {
		panic(fmt.Sprintf("metrics: invalid histogram [%v, %v) with %d buckets", min, max, n))
	}
	return &Histogram{min: min, max: max, width: (max - min) / float64(n), buckets: make([]uint64, n)}
}

// upperEdge is bucket i's upper boundary, shared by Observe and the
// exposition so a value is always counted under the le it is rendered with.
func upperEdge(min, width float64, i int) float64 { return min + width*float64(i+1) }

// Observe records one value. NaN is dropped; ±Inf is counted (in bucket 0
// or above every finite bucket) and poisons the sum.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	if b := h.bucket(v); b < len(h.buckets) {
		h.buckets[b]++
	}
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// bucket returns the index i with upperEdge(i-1) < v ≤ upperEdge(i), 0 for
// anything at or below the first edge, and len(buckets) above the last. The
// range checks stay on the float side (converting ±Inf to int is
// unspecified in Go); the estimate from the width is then corrected against
// the edges themselves, at most a step for float rounding.
func (h *Histogram) bucket(v float64) int {
	n := len(h.buckets)
	switch {
	case v <= upperEdge(h.min, h.width, 0):
		return 0
	case v > upperEdge(h.min, h.width, n-1):
		return n
	}
	b := min(max(int(math.Ceil((v-h.min)/h.width))-1, 1), n-1)
	for v <= upperEdge(h.min, h.width, b-1) {
		b--
	}
	for v > upperEdge(h.min, h.width, b) {
		b++
	}
	return b
}

// histSnapshot is a consistent copy of a histogram's state.
type histSnapshot struct {
	Min, Max float64
	Buckets  []uint64 // per-bucket (non-cumulative) counts; see Histogram
	Sum      float64
	Count    uint64 // every observed value, including those above Max
}

// upperEdge returns the upper boundary of bucket i, the le it is rendered
// under. Values above the last edge appear only in the le="+Inf" bucket.
func (s *histSnapshot) upperEdge(i int) float64 {
	return upperEdge(s.Min, (s.Max-s.Min)/float64(len(s.Buckets)), i)
}

func (h *Histogram) snapshot() *histSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return &histSnapshot{
		Min:     h.min,
		Max:     h.max,
		Buckets: append([]uint64(nil), h.buckets...),
		Sum:     h.sum,
		Count:   h.count,
	}
}

// metricSnapshot is one instrument's state as captured by Registry.Snapshot.
type metricSnapshot struct {
	Name string
	Help string
	Kind metricKind
	// Value is the counter or gauge reading; unused for histograms.
	Value float64
	// Hist is set only for histograms.
	Hist *histSnapshot
}

type instrument struct {
	name    string
	help    string
	kind    metricKind
	counter *Counter
	countFn func() uint64
	gaugeFn func() float64
	hist    *Histogram
}

// Registry is a named instrument table. Registration is get-or-create by
// name: N cluster replicas registering "serve_requests_total" share one
// fleet-wide counter, and a replica rejoining after a failure re-binds to
// the existing instrument instead of panicking. Kind conflicts panic — they
// are programming errors.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*instrument
}

// newRegistry returns an empty registry.
func newRegistry() *Registry {
	return &Registry{byName: make(map[string]*instrument)}
}

func (r *Registry) getOrCreate(name, help string, kind metricKind) (*instrument, bool) {
	ins, ok := r.byName[name]
	if ok {
		if ins.kind != kind {
			panic(fmt.Sprintf("metrics: metric %q re-registered as %v, was %v", name, kind, ins.kind))
		}
		return ins, false
	}
	ins = &instrument{name: name, help: help, kind: kind}
	r.byName[name] = ins
	return ins, true
}

// Counter registers (or finds) a monotone counter.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	ins, created := r.getOrCreate(name, help, kindCounter)
	if created {
		ins.counter = &Counter{}
	}
	return ins.counter
}

// CounterFunc registers a counter whose value is read from fn at snapshot
// time — for sources that already keep their own atomic tallies (admission
// ledgers, fleet membership counters). First registration wins.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ins, created := r.getOrCreate(name, help, kindCounter)
	if created {
		ins.countFn = fn
	}
}

// GaugeFunc registers a gauge read from fn at snapshot time. First
// registration wins.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ins, created := r.getOrCreate(name, help, kindGauge)
	if created {
		ins.gaugeFn = fn
	}
}

// Histogram registers (or finds) a histogram with n fixed-width buckets over
// [min, max).
func (r *Registry) Histogram(name, help string, min, max float64, n int) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	ins, created := r.getOrCreate(name, help, kindHistogram)
	if created {
		ins.hist = newHistogram(min, max, n)
	}
	return ins.hist
}

// snapshot reads every instrument, sorted by name. Function-backed
// instruments are invoked here, on the scraper's goroutine — never on a
// serving path.
func (r *Registry) snapshot() []metricSnapshot {
	r.mu.Lock()
	list := make([]*instrument, 0, len(r.byName))
	for _, ins := range r.byName {
		list = append(list, ins)
	}
	r.mu.Unlock()
	sort.Slice(list, func(a, b int) bool { return list[a].name < list[b].name })

	out := make([]metricSnapshot, 0, len(list))
	for _, ins := range list {
		m := metricSnapshot{Name: ins.name, Help: ins.help, Kind: ins.kind}
		switch {
		case ins.counter != nil:
			m.Value = float64(ins.counter.load())
		case ins.countFn != nil:
			m.Value = float64(ins.countFn())
		case ins.gaugeFn != nil:
			m.Value = ins.gaugeFn()
		case ins.hist != nil:
			m.Hist = ins.hist.snapshot()
		}
		out = append(out, m)
	}
	return out
}
