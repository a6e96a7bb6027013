package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"liveupdate/internal/tensor"
)

func TestAUCPerfectSeparation(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []int{1, 1, 0, 0}
	if got := AUC(scores, labels); got != 1 {
		t.Fatalf("AUC = %v, want 1", got)
	}
}

func TestAUCInverted(t *testing.T) {
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	labels := []int{1, 1, 0, 0}
	if got := AUC(scores, labels); got != 0 {
		t.Fatalf("AUC = %v, want 0", got)
	}
}

func TestAUCAllTied(t *testing.T) {
	scores := []float64{0.5, 0.5, 0.5, 0.5}
	labels := []int{1, 0, 1, 0}
	if got := AUC(scores, labels); got != 0.5 {
		t.Fatalf("AUC with ties = %v, want 0.5", got)
	}
}

func TestAUCSingleClass(t *testing.T) {
	if got := AUC([]float64{0.3, 0.7}, []int{1, 1}); got != 0.5 {
		t.Fatalf("single-class AUC = %v, want 0.5", got)
	}
	if got := AUC(nil, nil); got != 0.5 {
		t.Fatalf("empty AUC = %v, want 0.5", got)
	}
}

func TestAUCKnownValue(t *testing.T) {
	// One mis-ranked pair among 2x2 = 4 pairs → AUC = 3/4.
	scores := []float64{0.9, 0.3, 0.5, 0.1}
	labels := []int{1, 1, 0, 0}
	if got := AUC(scores, labels); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("AUC = %v, want 0.75", got)
	}
}

// Property: AUC is invariant under any strictly monotone transform of scores.
func TestPropertyAUCMonotoneInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 10 + rng.Intn(50)
		scores := make([]float64, n)
		labels := make([]int, n)
		for i := range scores {
			scores[i] = rng.Float64()
			labels[i] = rng.Intn(2)
		}
		a1 := AUC(scores, labels)
		transformed := make([]float64, n)
		for i, s := range scores {
			transformed[i] = math.Exp(3*s) + 7 // strictly increasing
		}
		a2 := AUC(transformed, labels)
		return math.Abs(a1-a2) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: flipping all labels maps AUC to 1-AUC (when both classes present).
func TestPropertyAUCLabelFlip(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 10 + rng.Intn(50)
		scores := make([]float64, n)
		labels := make([]int, n)
		pos := 0
		for i := range scores {
			scores[i] = rng.Float64()
			labels[i] = rng.Intn(2)
			pos += labels[i]
		}
		if pos == 0 || pos == n {
			return true // degenerate, AUC pinned at 0.5 either way
		}
		flipped := make([]int, n)
		for i, l := range labels {
			flipped[i] = 1 - l
		}
		return math.Abs(AUC(scores, labels)+AUC(scores, flipped)-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	if q := Quantile(vals, 0.5); q != 3 {
		t.Fatalf("median = %v, want 3", q)
	}
	if q := Quantile(vals, 0); q != 1 {
		t.Fatalf("q0 = %v, want 1", q)
	}
	if q := Quantile(vals, 1); q != 5 {
		t.Fatalf("q1 = %v, want 5", q)
	}
	if q := Quantile(vals, 0.25); q != 2 {
		t.Fatalf("q25 = %v, want 2", q)
	}
	if q := Quantile(nil, 0.5); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
	// Out-of-range q clamps.
	if q := Quantile(vals, 2); q != 5 {
		t.Fatalf("q clamp high = %v", q)
	}
	if q := Quantile(vals, -1); q != 1 {
		t.Fatalf("q clamp low = %v", q)
	}
}

func TestLatencyTrackerBasics(t *testing.T) {
	tr := NewLatencyTracker(100)
	for i := 1; i <= 100; i++ {
		tr.Observe(float64(i))
	}
	if tr.count != 100 {
		t.Fatalf("count = %d", tr.count)
	}
	if m := tr.Mean(); math.Abs(m-50.5) > 1e-9 {
		t.Fatalf("mean = %v, want 50.5", m)
	}
	if p := tr.P99(); p < 98 || p > 100 {
		t.Fatalf("p99 = %v", p)
	}
	if p := tr.P50(); p < 49 || p > 52 {
		t.Fatalf("p50 = %v", p)
	}
}

func TestLatencyTrackerSlidingWindow(t *testing.T) {
	tr := NewLatencyTracker(10)
	for i := 0; i < 100; i++ {
		tr.Observe(1)
	}
	for i := 0; i < 10; i++ {
		tr.Observe(100)
	}
	// Window now holds only the 100s.
	if p := tr.P50(); p != 100 {
		t.Fatalf("window p50 = %v, want 100", p)
	}
	if tr.count != 110 {
		t.Fatalf("count = %d, want 110", tr.count)
	}
}

// histogram observes vs into a fresh n-bucket histogram over [min, max) and
// returns its snapshot.
func histogram(min, max float64, n int, vs ...float64) *histSnapshot {
	h := newHistogram(min, max, n)
	for _, v := range vs {
		h.Observe(v)
	}
	return h.snapshot()
}

func TestHistogramBuckets(t *testing.T) {
	vs := make([]float64, 10)
	for i := range vs {
		vs[i] = float64(i) + 0.5
	}
	s := histogram(0, 10, 10, vs...)
	for i, c := range s.Buckets {
		if c != 1 {
			t.Fatalf("bucket %d = %d, want 1: %v", i, c, s.Buckets)
		}
	}
	if s.Count != 10 || s.Sum != 50 {
		t.Fatalf("count %d sum %v, want 10 and 50", s.Count, s.Sum)
	}
	// Below Min lands in bucket 0; above Max is counted, but in no finite
	// bucket: it belongs only to le="+Inf".
	s = histogram(0, 10, 10, -5, 99)
	if s.Buckets[0] != 1 || s.Buckets[9] != 0 || s.Count != 2 {
		t.Fatalf("out-of-range: buckets %v count %d", s.Buckets, s.Count)
	}
}

// TestHistogramInnerEdges holds the "le" convention: a value exactly on an
// edge is counted in the bucket that edge closes, never the next one.
func TestHistogramInnerEdges(t *testing.T) {
	s := histogram(0, 1, 4, 0, 0.25, 0.5, 0.75, 1)
	for i, c := range s.Buckets {
		want := uint64(1)
		if i == 0 {
			want = 2 // Min itself and the first edge
		}
		if c != want {
			t.Fatalf("bucket %d (le=%v) = %d, want %d: %v", i, s.upperEdge(i), c, want, s.Buckets)
		}
	}
	// Every value lands in the bucket whose rendered edges bracket it, also
	// where width·i rounds: 0.1·3 is 0.30000000000000004, above 0.3.
	h := newHistogram(0, 1, 10)
	for _, v := range []float64{0.1, 0.2, 0.3, 0.30000000000000004, 0.7, 0.9, 0.999} {
		b := h.bucket(v)
		lo, hi := math.Inf(-1), upperEdge(h.min, h.width, b)
		if b > 0 {
			lo = upperEdge(h.min, h.width, b-1)
		}
		if !(lo < v && v <= hi) {
			t.Fatalf("%v in bucket %d with edges (%v, %v]", v, b, lo, hi)
		}
	}
}

func TestTopShareCDF(t *testing.T) {
	// 10 items; item 0 gets 90 accesses, others 10 total.
	counts := make([]uint64, 10)
	counts[0] = 90
	for i := 1; i < 10; i++ {
		counts[i] = 1
	}
	// Top 10% (1 item) should hold 90/99 of the mass.
	got := TopShareCDF(counts, 0.10)
	want := 90.0 / 99.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("TopShareCDF = %v, want %v", got, want)
	}
	if TopShareCDF(counts, 1.0) != 1 {
		t.Fatal("full fraction must capture everything")
	}
	if TopShareCDF(nil, 0.1) != 0 {
		t.Fatal("empty counts → 0")
	}
	if TopShareCDF(make([]uint64, 5), 0.1) != 0 {
		t.Fatal("all-zero counts → 0")
	}
}

// Property: the rank-based AUC equals the brute-force pair statistic
// (fraction of positive-negative pairs ranked correctly, ties = 1/2).
func TestPropertyAUCMatchesBruteForce(t *testing.T) {
	brute := func(scores []float64, labels []int) float64 {
		var num, den float64
		for i := range scores {
			if labels[i] != 1 {
				continue
			}
			for j := range scores {
				if labels[j] != 0 {
					continue
				}
				den++
				switch {
				case scores[i] > scores[j]:
					num++
				case scores[i] == scores[j]:
					num += 0.5
				}
			}
		}
		if den == 0 {
			return 0.5
		}
		return num / den
	}
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 2 + rng.Intn(40)
		scores := make([]float64, n)
		labels := make([]int, n)
		for i := range scores {
			// Quantized scores to force ties frequently.
			scores[i] = float64(rng.Intn(6)) / 5
			labels[i] = rng.Intn(2)
		}
		return math.Abs(AUC(scores, labels)-brute(scores, labels)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Quantile is monotone in q and bounded by min/max.
func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 1 + rng.Intn(50)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 10
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(vals, q)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		lo, hi := Quantile(vals, 0), Quantile(vals, 1)
		for _, v := range vals {
			if v < lo || v > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramNonFiniteInputs(t *testing.T) {
	h := newHistogram(0, 10, 10)
	h.Observe(math.NaN())
	if s := h.snapshot(); s.Count != 0 || s.Sum != 0 {
		t.Fatalf("NaN was counted: %+v", s)
	}
	h.Observe(math.Inf(-1))
	if s := h.snapshot(); s.Buckets[0] != 1 {
		t.Fatalf("-Inf must land in the first bucket: %v", s.Buckets)
	}
	h.Observe(math.Inf(1))
	s := h.snapshot()
	if s.Buckets[9] != 0 || s.Count != 2 {
		t.Fatalf("+Inf must count only toward le=+Inf: %v count %d", s.Buckets, s.Count)
	}
	if !math.IsNaN(s.Sum) {
		t.Fatalf("sum of -Inf and +Inf = %v, want NaN", s.Sum)
	}
	// The exact upper edge belongs to the last bucket.
	h.Observe(10)
	if s := h.snapshot(); s.Buckets[9] != 1 || s.Count != 3 {
		t.Fatalf("max edge must land in the last bucket: %v", s.Buckets)
	}
}

func TestLatencyTrackerWrapKeepsWindowStats(t *testing.T) {
	// Regression for the removal of the dead `full` flag: wrapping the
	// window must keep Count/Mean over all samples while quantiles reflect
	// only the retained window.
	tr := NewLatencyTracker(4)
	for i := 1; i <= 8; i++ {
		tr.Observe(float64(i))
	}
	if tr.count != 8 {
		t.Fatalf("count = %d, want 8", tr.count)
	}
	if got, want := tr.Mean(), 4.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("mean = %v, want %v", got, want)
	}
	// Window retains {5,6,7,8}.
	if got := tr.P50(); got < 5 || got > 8 {
		t.Fatalf("P50 = %v, want within retained window [5,8]", got)
	}
	if s := tr.Samples(); len(s) != 4 {
		t.Fatalf("retained %d samples, want 4", len(s))
	}
}
