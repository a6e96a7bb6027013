package main

import (
	"fmt"
	"math"
	"time"

	"liveupdate/internal/update"
)

// Reference shape of freshness_1h: ISSUE 11's eight seeds, of which the first
// freshMinSeeds always run (and alone decide auc); further seeds run until
// -seconds is used up.
const (
	freshMinSeeds = 4
	freshMaxSeeds = 64
	freshPretrain = 12 // windows of pre-stream data behind the Day-1 checkpoint
	freshWindows  = 12 // 12 x 300 s = one virtual hour
	freshDrift    = 2.5
)

// gainSlack is how far LiveUpdate's mean AUC may fall below DeltaUpdate's
// before a run counts as incorrect. The paper's claim is a gain, and over 32
// seeds it is one: +0.0093 a seed on average. But a seed is a ground truth of
// its own and the gain's standard deviation across them is 0.013, so the mean
// over a run's 4 seeds dips below zero about one run in fourteen (seeds 9-12
// read 0.5411 vs 0.5415 in one run and 0.5433 vs 0.5415 in the next, see
// README "Known noise sources"). A correct program must not fail the
// benchmark, so the check sits three deviations down, where it trips once
// LiveUpdate has lost about 0.02 of AUC, the size of the gap the paper claims;
// a gain at or below zero is a warning, and -compare holds auc to 0.01
// absolute on equal seeds.
const gainSlack = 0.01

// Span names of the freshness harness.
const (
	spLiveStep = iota
	spDeltaStep
)

var freshSpanNames = []string{"update.live_step", "update.delta_step"}

// freshRun is what one pass over freshness_1h measured.
type freshRun struct {
	Seeds     int
	Setups    []float64 // seconds to build and pretrain both arms, per seed
	Meter     meter
	Timer     pieceTimer // one piece per window: a LiveUpdate Step, then a DeltaUpdate Step
	Samples   int64      // streamed through both arms in timed Steps
	NaN       int64      // AUC windows that came back NaN
	LiveAUCs  []float64  // mean over windows, per seed, the first freshMinSeeds seeds
	DeltaAUCs []float64
	LiveAUC   float64 // mean over those seeds
	DeltaAUC  float64
	LiveMB    float64
	DeltaMB   float64
	Overhead  float64 // LiveUpdate adapter bytes / EMT bytes, last fixed seed
	LoRARank  int
	RSSMB     float64 // resident-set high-water mark after the first freshMinSeeds seeds
	PerWindow int64   // samples per window
}

// driveFresh runs the two arms seed by seed. Building and pretraining a seed's
// harnesses is set-up (untimed, one setup_s sample per seed); its 12 windows
// are the timed segment, a piece each: the LiveUpdate arm's Step (the piece's
// one call), then the DeltaUpdate arm's. seeds == 0 means: at least
// freshMinSeeds, then until budget is used up.
func driveFresh(o options, tr *tracer, seeds int) (freshRun, error) {
	var run freshRun
	p := criteo()
	p.DriftRate *= freshDrift
	perWindow := o.n(600)
	if perWindow < 60 {
		perWindow = 60
	}
	minSeeds := o.n(freshMinSeeds)
	run.PerWindow = int64(perWindow)
	var ln *lane
	if tr != nil {
		ln = tr.lane("harness")
	}
	budget := time.Duration(o.Seconds * float64(time.Second))
	for k := 0; ; k++ {
		seed := o.Seed + uint64(k)
		t0 := time.Now()
		arms := make([]*update.Harness, 2)
		for i, kind := range []update.Kind{update.LiveUpdate, update.DeltaUpdate} {
			cfg := update.DefaultHarnessConfig(p, kind, seed)
			cfg.SamplesPerWindow = perWindow
			h, err := update.NewHarness(cfg)
			if err != nil {
				return run, err
			}
			h.Pretrain(freshPretrain)
			arms[i] = h
		}
		run.Setups = append(run.Setups, time.Since(t0).Seconds())

		run.Meter.start()
		for w := 0; w < freshWindows; w++ {
			var liveNs [1]int64
			run.Timer.start()
			for i, h := range arms {
				if ln != nil {
					ln.begin(i, k*freshWindows+w)
				}
				s0 := nowNs()
				auc := h.Step()
				if i == spLiveStep {
					liveNs[0] = nowNs() - s0
				}
				if ln != nil {
					ln.end()
				}
				if math.IsNaN(auc) {
					run.NaN++
				}
			}
			run.Timer.stop(len(arms)*perWindow, liveNs[:], 0.5)
			run.Samples += int64(len(arms) * perWindow)
		}
		run.Meter.stop()
		run.Seeds++

		if k < minSeeds {
			live, delta := arms[0].Result(), arms[1].Result()
			run.LiveAUCs = append(run.LiveAUCs, live.MeanAUC)
			run.DeltaAUCs = append(run.DeltaAUCs, delta.MeanAUC)
			run.LiveMB += float64(live.Bytes) / 1e6
			run.DeltaMB += float64(delta.Bytes) / 1e6
			run.Overhead = live.LoRAOverhead
			run.LoRARank = arms[0].LoRASet().Adapters[0].Rank()
			run.RSSMB = peakRSSMB()
		}
		done := run.Seeds >= minSeeds && run.Meter.Wall >= budget
		if seeds > 0 {
			done = run.Seeds >= seeds
		}
		if done || run.Seeds >= freshMaxSeeds {
			break
		}
	}
	run.LiveAUC, run.DeltaAUC = mean(run.LiveAUCs), mean(run.DeltaAUCs)
	return run, nil
}

func runFreshness(o options) (*result, error) {
	r := newResult("freshness_1h", o)
	run, err := driveFresh(o, nil, 0)
	if err != nil {
		return nil, err
	}
	n := float64(run.Samples)
	r.Attempted, r.Failed = run.Samples, run.NaN*run.PerWindow
	r.endToEnd(run.Setups, run.Timer.Pieces, float64(run.Meter.Mallocs)/n, run.RSSMB, run.LiveAUC)
	r.note("%d seeds (%d..%d) x %d windows x 2 arms in %.2fs of timed Steps, 1 goroutine; a piece is one window (a LiveUpdate Step, then a DeltaUpdate Step); throughput is samples streamed through both arms; a call is the LiveUpdate Step; auc is LiveUpdate's mean over windows and the first %d seeds; setup_s is the median of %d per-seed set-ups",
		run.Seeds, o.Seed, o.Seed+uint64(run.Seeds)-1, freshWindows, run.Meter.Wall.Seconds(), o.n(freshMinSeeds), len(run.Setups))
	r.note("auc per seed: LiveUpdate %.4f, DeltaUpdate %.4f", run.LiveAUCs, run.DeltaAUCs)
	r.check("no NaN AUC window", run.NaN == 0, "%d", run.NaN)
	r.checkAUC(run.LiveAUC)
	gain := run.LiveAUC - run.DeltaAUC
	r.check(fmt.Sprintf("LiveUpdate auc > DeltaUpdate auc - %.2f", gainSlack), gain > -gainSlack, "%.4f vs %.4f", run.LiveAUC, run.DeltaAUC) // false for NaN
	if gain <= 0 {
		r.warn("LiveUpdate's auc gain over DeltaUpdate is %+.4f: the paper's accuracy claim does not show on these seeds", gain)
	}
	if !o.Trace {
		r.finish()
		return r, nil
	}

	tr := newTracer(freshSpanNames...)
	traced, err := driveFresh(o, tr, run.Seeds)
	if err != nil {
		return nil, err
	}
	tot := tr.totals()
	r.set("update.live_step_ms", tot[spLiveStep].meanNs()/1e6)
	r.set("update.delta_step_ms", tot[spDeltaStep].meanNs()/1e6)
	r.set("update.auc_delta", run.DeltaAUC)
	r.set("update.auc_gain_pp", (run.LiveAUC-run.DeltaAUC)*100)
	r.set("update.bytes_live_mb", run.LiveMB)
	r.set("update.bytes_delta_mb", run.DeltaMB)
	r.set("lora.rank_final", float64(run.LoRARank))
	r.set("lora.overhead_pct", run.Overhead*100)
	r.set("bench.fail_ratio", float64(r.Failed)/float64(r.Attempted))
	r.set("bench.trace_overhead_pct", (1-run.Meter.Wall.Seconds()/traced.Meter.Wall.Seconds())*100)
	pool, genNs, err := genPool(criteo(), o.Seed, o.n(nodeWarm)+64)
	if err != nil {
		return nil, err
	}
	r.set("trace.gen_ns", genNs)
	probeKernels(r, pool, o)
	if err := writeTrace(tr, r.Workload, o); err != nil {
		return nil, err
	}
	r.finish()
	return r, nil
}
