package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refQuantile is the historical copy-and-sort Quantile; the heap selection
// must return the identical bits.
func refQuantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	q = math.Min(math.Max(q, 0), 1)
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

var equivalenceQs = []float64{0, 0.5, 0.99, 1}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestQuantileSelectionMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fills := map[string]func(i int) float64{
		"uniform":    func(int) float64 { return rng.Float64() },
		"duplicates": func(int) float64 { return float64(rng.Intn(7)) * 0.00128 }, // a virtual-latency window
		"constant":   func(int) float64 { return 5.12e-3 },
		"ascending":  func(i int) float64 { return float64(i) },
		"descending": func(i int) float64 { return -float64(i) },
		"organpipe":  func(i int) float64 { return -math.Abs(float64(i) - 2000) },
	}
	for name, fill := range fills {
		vals := make([]float64, 0, 4097)
		for n := 1; n <= 4097; n++ {
			vals = append(vals, fill(n-1))
			if n > 64 && n%61 != 0 && n < 4090 { // every size up to 64, a stride beyond, the top few
				continue
			}
			before := append([]float64(nil), vals...)
			for _, q := range equivalenceQs {
				if got, want := Quantile(vals, q), refQuantile(vals, q); !sameBits(got, want) {
					t.Fatalf("%s n=%d q=%v: selection %v, sort %v", name, n, q, got, want)
				}
			}
			for i := range vals {
				if !sameBits(vals[i], before[i]) {
					t.Fatalf("%s n=%d: Quantile reordered its input", name, n)
				}
			}
		}
	}
}

func TestLatencyTrackerQuantilesMatchSortAcrossWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const window = 257
	tr := NewLatencyTracker(window)
	for i := 0; i < 5*window; i++ {
		if i%3 == 0 {
			tr.Observe(float64(rng.Intn(5)) * 1e-3)
		} else {
			tr.Observe(rng.ExpFloat64() * 1e-3)
		}
		if i%17 != 0 {
			continue
		}
		retained := tr.Samples()
		for _, q := range equivalenceQs {
			if got, want := tr.QuantileOf(q), refQuantile(retained, q); !sameBits(got, want) {
				t.Fatalf("after %d samples q=%v: tracker %v, sort %v", i+1, q, got, want)
			}
		}
		if !sameBits(tr.P99(), refQuantile(retained, 0.99)) || !sameBits(tr.P50(), refQuantile(retained, 0.5)) {
			t.Fatalf("after %d samples: P99/P50 diverge from the sort reference", i+1)
		}
		// A read must not disturb the window it read.
		for j, v := range tr.Samples() {
			if !sameBits(v, retained[j]) {
				t.Fatalf("after %d samples: quantile read reordered the window", i+1)
			}
		}
	}
}

func TestLatencyTrackerSteadyStateAllocs(t *testing.T) {
	tr := NewLatencyTracker(4096)
	for i := 0; i < 5000; i++ {
		tr.Observe(float64(i%97) * 1e-4)
	}
	tr.P99() // sizes the scratch
	if n := testing.AllocsPerRun(50, func() {
		tr.Observe(1e-3)
		tr.P99()
	}); n != 0 {
		t.Fatalf("Observe+P99 on a full window allocates %v times, want 0", n)
	}
}

func TestQuantileWorstCaseOrder(t *testing.T) {
	// Ascending input replaces the heap root on every sample: the slow path
	// of the selection must still return the sort's value.
	v := make([]float64, 4096)
	for i := range v {
		v[i] = float64(i/3) * 1e-3
	}
	for _, q := range []float64{0, 0.01, 0.5, 0.99, 0.999, 1} {
		if got, want := Quantile(v, q), refQuantile(v, q); !sameBits(got, want) {
			t.Fatalf("q=%v: %v vs %v", q, got, want)
		}
	}
}
