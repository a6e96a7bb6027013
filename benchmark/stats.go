package main

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

// tailLadder lists the percentiles a tail metric may report, highest first.
var tailLadder = []int{99, 95, 90, 75, 50}

// tailPercentile picks the highest ladder percentile that still has at least
// ten samples beyond it, so a "p99" over a short run degrades to an honest
// lower percentile instead of reporting the maximum. n below 20 yields 0.50.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n*(100-p) >= 10*100 {
			return float64(p) / 100
		}
	}
	return 0.50
}

// quantile is the nearest-rank quantile of sorted (ascending) values.
func quantile[T int64 | float64](sorted []T, p float64) T {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// latencySummary is a median and tail over per-call wall-clock samples.
type latencySummary struct {
	N     int
	P50   float64 // microseconds
	Tail  float64 // microseconds, at TailP
	TailP float64
}

// summarize sorts ns in place. The tail is taken at tailP, or lower where the
// samples are too few for it (tailPercentile). No samples give a zero summary.
func summarize(ns []int64, tailP float64) latencySummary {
	slices.Sort(ns)
	out := latencySummary{N: len(ns), TailP: math.Min(tailP, tailPercentile(len(ns)))}
	if len(ns) > 0 {
		out.P50, out.Tail = float64(quantile(ns, 0.50))/1e3, float64(quantile(ns, out.TailP))/1e3
	}
	return out
}

// piece is one slice of a run's timed region, measured on its own. A run is
// cut into pieces of equal work (the same number of calls), a fraction of a
// second each, and before each piece the reference kernel (ref.go) takes the
// host's speed.
type piece struct {
	Samples int
	Wall    time.Duration
	CPU     time.Duration // process user+system time
	Lat     latencySummary
	Slow    float64 // how many times longer than refTime the reference kernel took just before the piece
}

// pieceTimer measures the pieces of one run.
type pieceTimer struct {
	Lanes  int // goroutines the workload runs its calls on; 0 means 1
	Pieces []piece
	CallNs int64 // sum over every call of every piece

	slow float64
	t0   time.Time
	cpu0 time.Duration
}

func (pt *pieceTimer) start() {
	pt.slow = hostSlowness(pt.Lanes)
	pt.cpu0 = processCPU()
	pt.t0 = time.Now()
}

// stop closes the piece started last: samples were served by the calls whose
// times are in callNs, which it sorts in place.
func (pt *pieceTimer) stop(samples int, callNs []int64, tailP float64) {
	p := piece{Samples: samples, Wall: time.Since(pt.t0), CPU: processCPU() - pt.cpu0, Slow: pt.slow}
	for _, v := range callNs {
		pt.CallNs += v
	}
	p.Lat = summarize(callNs, tailP)
	pt.Pieces = append(pt.Pieces, p)
}

// timing is a run's four timing metrics, each the median over its pieces.
type timing struct {
	RPS       float64 // samples per second of wall time
	CPUms     float64 // process CPU ms per 1000 samples
	P50, Tail float64 // microseconds per call
	TailP     float64
}

// steady reads a run's timing metrics from its pieces at the reference host
// speed: every piece's figures are scaled by how many times longer than
// refTime the reference kernel took just before the piece, and each metric is
// the median over the pieces. With atRef false the figures are left as measured.
//
// The reference host is a shared VM whose processor runs the same instructions
// at anything between full and about two thirds of full speed, for a fraction
// of a second or for minutes, depending on what its neighbours do (README,
// "Known noise sources"). A run's raw figures follow: they differ by 10-25 %
// between runs of the same code. The reference kernel slows by nearly the same
// factor as the workloads do, so the scaled figures repeat to a few percent.
func steady(pieces []piece, atRef bool) timing {
	if len(pieces) == 0 {
		return timing{}
	}
	col := func(f func(piece) float64) float64 {
		v := make([]float64, len(pieces))
		for i, p := range pieces {
			v[i] = f(p)
		}
		return median(v)
	}
	slow := func(p piece) float64 { // how much slower than the reference host the host was
		if !atRef {
			return 1
		}
		return p.Slow
	}
	return timing{
		RPS:   col(func(p piece) float64 { return float64(p.Samples) / p.Wall.Seconds() * slow(p) }),
		CPUms: col(func(p piece) float64 { return p.CPU.Seconds() * 1e3 / float64(p.Samples) * 1e3 / slow(p) }),
		P50:   col(func(p piece) float64 { return p.Lat.P50 / slow(p) }),
		Tail:  col(func(p piece) float64 { return p.Lat.Tail / slow(p) }),
		TailP: pieces[0].Lat.TailP,
	}
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (exclusive method), which
// is what the acceptance driver computes spreads with.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		if lo < 1 {
			lo, frac = 1, 0
		}
		if lo >= n {
			lo, frac = n-1, 1
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(1), at(2), at(3)
}

// iqr is the distance between the first and the third quartile.
func iqr(values []float64) float64 {
	q1, _, q3 := quartiles(values)
	return q3 - q1
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	if med := median(values); med != 0 {
		return math.Abs(iqr(values) / med)
	}
	return 0
}

func median(values []float64) float64 {
	_, med, _ := quartiles(values)
	return med
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// meter accumulates wall time, process CPU time and heap allocations over the
// timed segments of a run, so set-up between segments is not charged.
type meter struct {
	Wall    time.Duration
	CPU     time.Duration
	Mallocs uint64

	t0   time.Time
	cpu0 time.Duration
	m0   uint64
}

func (m *meter) start() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.m0 = ms.Mallocs
	m.cpu0 = processCPU()
	m.t0 = time.Now()
}

func (m *meter) stop() {
	m.Wall += time.Since(m.t0)
	m.CPU += processCPU() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.Mallocs += ms.Mallocs - m.m0
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// processCPU is user+system CPU time of the whole process, GC workers and
// every goroutine included.
func processCPU() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (ru_maxrss is KiB
// on Linux).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// timerPairNs is the cost of the time.Now pair every per-call sample pays.
func timerPairNs() float64 {
	const n = 200000
	var sink time.Duration
	t0 := time.Now()
	for i := 0; i < n; i++ {
		a := time.Now()
		sink += time.Since(a)
	}
	el := time.Since(t0)
	_ = sink
	return float64(el.Nanoseconds()) / n
}

var processStart = time.Now()

// nowNs is a monotonic nanosecond clock.
func nowNs() int64 { return int64(time.Since(processStart)) }
