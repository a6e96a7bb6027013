// Package metrics provides the evaluation metrics used throughout the
// LiveUpdate reproduction: AUC-ROC for recommendation quality (paper §V-A),
// latency quantile tracking for P99 SLA monitoring (paper §IV-D), histograms,
// and CDF extraction (paper Fig 12).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// AUC computes the area under the ROC curve by the rank-statistic method
// (equivalent to the Mann–Whitney U statistic). scores[i] is the predicted
// probability for example i; labels[i] is its true 0/1 label. Tied scores
// receive the average rank. AUC returns 0.5 when either class is absent.
func AUC(scores []float64, labels []int) float64 {
	if len(scores) != len(labels) {
		panic(fmt.Sprintf("metrics: AUC length mismatch %d vs %d", len(scores), len(labels)))
	}
	n := len(scores)
	if n == 0 {
		return 0.5
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })

	var posRankSum float64
	var pos, neg int
	i := 0
	for i < n {
		j := i
		for j < n && scores[idx[j]] == scores[idx[i]] {
			j++
		}
		// Average rank of the tie group [i, j); ranks are 1-based.
		avgRank := float64(i+j+1) / 2
		for k := i; k < j; k++ {
			if labels[idx[k]] == 1 {
				posRankSum += avgRank
				pos++
			} else {
				neg++
			}
		}
		i = j
	}
	if pos == 0 || neg == 0 {
		return 0.5
	}
	u := posRankSum - float64(pos)*float64(pos+1)/2
	return u / (float64(pos) * float64(neg))
}

// LogLoss returns the mean binary cross-entropy of predictions clipped away
// from 0 and 1 for numerical safety.
func LogLoss(scores []float64, labels []int) float64 {
	if len(scores) != len(labels) {
		panic("metrics: LogLoss length mismatch")
	}
	if len(scores) == 0 {
		return 0
	}
	const eps = 1e-12
	sum := 0.0
	for i, p := range scores {
		if p < eps {
			p = eps
		} else if p > 1-eps {
			p = 1 - eps
		}
		if labels[i] == 1 {
			sum -= math.Log(p)
		} else {
			sum -= math.Log(1 - p)
		}
	}
	return sum / float64(len(scores))
}

// Quantile returns the q-quantile (0 <= q <= 1) of values using linear
// interpolation between closest ranks — bit for bit the value a full sort
// would give, without sorting or modifying the input (see quantileOf).
func Quantile(values []float64, q float64) float64 {
	v, _ := quantileOf(values, q, nil)
	return v
}

// quantileOf is Quantile through a caller-owned scratch, returned (possibly
// regrown) for reuse. The interpolation needs the order statistics at ranks
// lo = ⌊q(n−1)⌋ and lo+1, i.e. the two smallest of the n−lo largest values:
// those are kept in a min-heap held in buf while values is scanned once. For
// a tail quantile the heap is tiny (42 of 4096 for P99), almost every sample
// fails the one well-predicted comparison against its root, and the whole
// read is one sequential pass: O(n + m·log(n/m)·log m) for heap size m on
// unordered input, against O(n log n) for the copy-and-sort it replaces.
func quantileOf(values []float64, q float64, buf []float64) (float64, []float64) {
	n := len(values)
	if n == 0 {
		return 0, buf
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	m := n - lo
	top := append(buf[:0], values[:m]...)
	for i := m/2 - 1; i >= 0; i-- {
		siftDown(top, i)
	}
	root := top[0]
	for _, x := range values[m:] {
		if x > root {
			top[0] = x
			siftDown(top, 0)
			root = top[0]
		}
	}
	if float64(lo) == pos {
		return top[0], top
	}
	next := top[1] // rank lo+1: the smaller child of the root
	if m > 2 && top[2] < next {
		next = top[2]
	}
	frac := pos - float64(lo)
	return top[0]*(1-frac) + next*frac, top
}

// siftDown restores the min-heap property of h below index i.
func siftDown(h []float64, i int) {
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if !(h[c] < x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// LatencyTracker accumulates latency samples over a sliding window and
// reports quantiles. It keeps the most recent Window samples.
type LatencyTracker struct {
	window  int
	samples []float64
	next    int
	count   uint64
	sum     float64
	scratch []float64 // quantile reads build their heap here and allocate nothing
}

// NewLatencyTracker returns a tracker keeping the last window samples.
func NewLatencyTracker(window int) *LatencyTracker {
	if window <= 0 {
		window = 1024
	}
	return &LatencyTracker{window: window, samples: make([]float64, 0, window)}
}

// Observe records one latency sample.
func (t *LatencyTracker) Observe(v float64) {
	t.count++
	t.sum += v
	if len(t.samples) < t.window {
		t.samples = append(t.samples, v)
		return
	}
	t.samples[t.next] = v
	t.next = (t.next + 1) % t.window
}

// Count returns the total number of samples observed (not just retained).
func (t *LatencyTracker) Count() uint64 { return t.count }

// Mean returns the mean over all observed samples.
func (t *LatencyTracker) Mean() float64 {
	if t.count == 0 {
		return 0
	}
	return t.sum / float64(t.count)
}

// P99 returns the 99th-percentile latency over the retained window.
func (t *LatencyTracker) P99() float64 { return t.QuantileOf(0.99) }

// P50 returns the median latency over the retained window.
func (t *LatencyTracker) P50() float64 { return t.QuantileOf(0.50) }

// QuantileOf returns an arbitrary quantile over the retained window. It
// selects through the tracker's scratch, so like Observe it mutates the
// tracker and needs the same serialization.
func (t *LatencyTracker) QuantileOf(q float64) float64 {
	v, buf := quantileOf(t.samples, q, t.scratch)
	t.scratch = buf
	return v
}

// Samples returns a copy of the retained window (unordered with respect to
// observation time once the window has wrapped). It lets callers pool raw
// latencies across trackers, e.g. for a fleet-wide P99.
func (t *LatencyTracker) Samples() []float64 {
	return append([]float64(nil), t.samples...)
}

// Reset drops all retained samples and counters.
func (t *LatencyTracker) Reset() {
	t.samples = t.samples[:0]
	t.next = 0
	t.count = 0
	t.sum = 0
}

// Histogram counts values into fixed-width buckets over [min, max); values
// outside the range are clamped into the first/last bucket.
type Histogram struct {
	Min, Max float64
	Counts   []uint64
	width    float64
	total    uint64
}

// NewHistogram creates a histogram with n buckets covering [min, max).
func NewHistogram(min, max float64, n int) *Histogram {
	if n <= 0 || max <= min {
		panic("metrics: invalid histogram parameters")
	}
	return &Histogram{Min: min, Max: max, Counts: make([]uint64, n), width: (max - min) / float64(n)}
}

// Observe adds one value. NaN is dropped; ±Inf clamps to the edge buckets.
// The range check happens on the float side: converting a NaN or out-of-range
// float to int is unspecified in Go, so `int((v-Min)/width)` on such inputs
// could land in an arbitrary bucket.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	var b int
	switch {
	case v < h.Min:
		b = 0
	case v >= h.Max:
		b = len(h.Counts) - 1
	default:
		if b = int((v - h.Min) / h.width); b >= len(h.Counts) {
			// Float rounding at the upper edge can overshoot by one.
			b = len(h.Counts) - 1
		}
	}
	h.Counts[b]++
	h.total++
}

// Total returns the number of observed values.
func (h *Histogram) Total() uint64 { return h.total }

// CDF returns cumulative fractions per bucket upper edge.
func (h *Histogram) CDF() []float64 {
	out := make([]float64, len(h.Counts))
	if h.total == 0 {
		return out
	}
	cum := uint64(0)
	for i, c := range h.Counts {
		cum += c
		out[i] = float64(cum) / float64(h.total)
	}
	return out
}

// TopShareCDF is the access-skew statistic of paper Fig 12: given per-item
// access counts, it returns the fraction of total accesses captured by the
// most popular `fraction` of items (e.g. fraction=0.10 → "top 10% of indices
// account for X% of accesses").
func TopShareCDF(counts []uint64, fraction float64) float64 {
	if len(counts) == 0 {
		return 0
	}
	sorted := append([]uint64(nil), counts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	var total uint64
	for _, c := range sorted {
		total += c
	}
	if total == 0 {
		return 0
	}
	k := int(math.Ceil(fraction * float64(len(sorted))))
	if k < 1 {
		k = 1
	}
	if k > len(sorted) {
		k = len(sorted)
	}
	var top uint64
	for i := 0; i < k; i++ {
		top += sorted[i]
	}
	return float64(top) / float64(total)
}

// EMA is an exponential moving average with smoothing factor alpha in (0,1].
type EMA struct {
	Alpha float64
	value float64
	init  bool
}

// Observe folds in a sample and returns the updated average.
func (e *EMA) Observe(v float64) float64 {
	if !e.init {
		e.value = v
		e.init = true
		return v
	}
	e.value = e.Alpha*v + (1-e.Alpha)*e.value
	return e.value
}

// Value returns the current average (0 before any sample).
func (e *EMA) Value() float64 { return e.value }
