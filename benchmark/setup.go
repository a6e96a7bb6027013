package main

import (
	"math"
	"runtime"
	"time"

	"liveupdate/internal/trace"
)

// countDiv is the one common factor (1/4) applied to ISSUE 11's request
// counts (120 000 / 2 500 000 / 300 000 requests, 60 000 calls, 20 000 warm-up).
// The scaled counts are the minimum a run measures, about a quarter of it;
// past them a run keeps going until -seconds is used up, so that the whole of
// a run is as long as the acceptance driver's 3420 s for 4 + 22·4 runs allow.
// freshness_1h keeps 4 of the 8 seeds (AUC over 2 seeds repeats too poorly to
// guard anything).
const countDiv = 4

// sysSeed seeds the program under test. The workload seed (-seed) only makes
// the inputs; the program receives nothing but the generated samples.
const sysSeed = 1

type options struct {
	Seed    uint64
	Seconds float64
	Trace   bool
	Scale   float64 // multiplies every count and pool size: 1 from the command line, 1/200 in the tests
	Setups  int     // times the workload is set up and timed (setupRepeats from the command line)
	OutDir  string
}

// n scales a reference count, never below 1.
func (o options) n(count int) int {
	v := int(math.Round(float64(count) * o.Scale))
	if v < 1 {
		v = 1
	}
	return v
}

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median of the times, as the builder's contract asks.
const setupRepeats = 3

// timed builds a workload's environment and returns the seconds that took.
func timed[E any](build func() (E, error)) (E, float64, error) {
	t0 := time.Now()
	env, err := build()
	return env, time.Since(t0).Seconds(), err
}

// moreSetups repeats a set-up until o.Setups were timed, own included,
// dropping each environment at once. A run calls it after it has measured, so
// that the memory the repeats churn stays out of rss_peak_mb.
func moreSetups[E any](o options, own float64, build func() (E, error), drop func(E)) ([]float64, error) {
	secs := []float64{own}
	for len(secs) < o.Setups {
		runtime.GC()
		env, s, err := timed(build)
		if err != nil {
			return nil, err
		}
		drop(env)
		secs = append(secs, s)
	}
	return secs, nil
}

// criteo is the full profile every workload runs on: 8 tables x 6000 rows,
// dim 16, 13 dense features.
func criteo() trace.Profile {
	p, err := trace.ProfileByName("criteo")
	if err != nil {
		panic(err) // the registry is static
	}
	return p
}

// gcEvery is how many generated samples lie between genPool's collections.
const gcEvery = 16384

// genPool pre-generates n samples from the workload seed, so the generator's
// ~3 µs and ~18 allocations per sample stay out of every timed region. It
// also returns the cost per Generator.Next (trace.gen_ns).
func genPool(p trace.Profile, seed uint64, n int) ([]trace.Sample, float64, error) {
	gen, err := trace.NewGenerator(p, seed)
	if err != nil {
		return nil, 0, err
	}
	pool := make([]trace.Sample, n)
	var spent int64
	for lo := 0; lo < n; lo += gcEvery {
		hi := lo + gcEvery
		if hi > n {
			hi = n
		}
		t0 := nowNs()
		for i := lo; i < hi; i++ {
			pool[i] = gen.Next()
		}
		spent += nowNs() - t0
		// Collecting at fixed sample counts (the generator leaves ~8 dead
		// slices per sample) makes the heap's high-water mark a function of
		// the inputs rather than of where the concurrent collector happened
		// to be, which rss_peak_mb would otherwise inherit.
		runtime.GC()
	}
	return pool, float64(spent) / float64(n), nil
}

// settleHeap collects once between set-up and the timed region, so the
// collector's next goal, and with it the heap's growth up to the point where
// rss_peak_mb is read, starts from the live set-up and not from wherever
// set-up's garbage left it.
func settleHeap() { runtime.GC() }
