// Package metrics is the one instrument package of the LiveUpdate
// reproduction. It holds the evaluation metrics — AUC-ROC for recommendation
// quality (paper §V-A), latency quantile tracking for P99 SLA monitoring
// (paper §IV-D) and the access-skew CDF of paper Fig 12 — and the telemetry
// layer: sampled per-request stage tracing (route, admission queue wait,
// forward, commit, train tick, sync-publish stall) into a preallocated
// lock-free span ring, plus a named registry of counters, gauges and
// histograms that serving, cluster sync, fleet membership and netserve
// admission register into, exported as Prometheus text, expvar-style JSON
// and Chrome trace-event JSON.
//
// The telemetry is strictly a *side-band wall-clock observer*: instruments
// count real events and spans time real nanoseconds, but nothing here reads
// or mutates any virtual-time state. The determinism contract — every
// virtual-time statistic bit-identical for any worker count and under chaos
// — holds with telemetry on or off, and a test enforces it.
//
// Not to be confused with internal/trace, which generates *workload* traces
// (the request streams replayed against the system); this package records
// *telemetry* traces (where those requests spent their time).
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// AUC computes the area under the ROC curve by the rank-statistic method
// (equivalent to the Mann–Whitney U statistic). scores[i] is the predicted
// probability for example i; labels[i] is its true 0/1 label. Tied scores
// receive the average rank. AUC returns 0.5 when either class is absent.
func AUC(scores []float64, labels []int) float64 {
	auc, _ := AUCInto(scores, labels, nil)
	return auc
}

// AUCInto is AUC through a caller-owned rank-order buffer, returned (possibly
// regrown) for reuse, so a caller that scores window after window allocates
// nothing once the buffer has grown to its window.
func AUCInto(scores []float64, labels []int, idx []int) (float64, []int) {
	if len(scores) != len(labels) {
		panic(fmt.Sprintf("metrics: AUC length mismatch %d vs %d", len(scores), len(labels)))
	}
	n := len(scores)
	if n == 0 {
		return 0.5, idx
	}
	idx = slices.Grow(idx[:0], n)[:n]
	for i := range idx {
		idx[i] = i
	}
	// Ascending by score, ties in index order: the comparator reports "less"
	// exactly where scores[a] < scores[b] holds.
	slices.SortStableFunc(idx, func(a, b int) int {
		switch x, y := scores[a], scores[b]; {
		case x < y:
			return -1
		case y < x:
			return 1
		}
		return 0
	})

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
		return 0.5, idx
	}
	u := posRankSum - float64(pos)*float64(pos+1)/2
	return u / (float64(pos) * float64(neg)), idx
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

// Mean returns the mean over all observed samples.
func (t *LatencyTracker) Mean() float64 {
	if t.count == 0 {
		return 0
	}
	return t.sum / float64(t.count)
}

// P99 returns the 99th-percentile latency over the retained window.
func (t *LatencyTracker) P99() float64 { return t.quantile(0.99) }

// P50 returns the median latency over the retained window.
func (t *LatencyTracker) P50() float64 { return t.quantile(0.50) }

// quantile returns an arbitrary quantile over the retained window. It
// selects through the tracker's scratch, so like Observe it mutates the
// tracker and needs the same serialization.
func (t *LatencyTracker) quantile(q float64) float64 {
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
