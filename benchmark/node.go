package main

import (
	"fmt"
	"time"

	"liveupdate/internal/core"
	"liveupdate/internal/lora"
	"liveupdate/internal/metrics"
	"liveupdate/internal/trace"
)

// Reference counts of the two node workloads. A piece is about a fifth of a
// second on the reference host (node_infer) or two fifths (node_fresh, so
// that its p99 has 20 calls beyond it).
const (
	nodeWarm       = 20000 / countDiv                    // requests served before timing starts (trainer on)
	nodeFreshPiece = 2000                                // Serve calls per piece, node_fresh
	nodeFreshMin   = 120000 / countDiv / nodeFreshPiece  // minimum timed pieces, node_fresh
	nodeFreshPool  = 212992                              // samples; sized so a 25 s run does not wrap
	nodeInferPiece = 25000                               // Serve calls per piece, node_infer
	nodeInferMin   = 2500000 / countDiv / nodeInferPiece // minimum timed pieces, node_infer
	nodeInferPool  = 65536                               // samples, cycled
)

// The latency tail of node_fresh is p99: one call in eight carries a train
// tick and about one in seventy a tick with rank adaptation behind it, ten
// times dearer, which p99 sits inside. On node_infer p99 is where the host's
// interrupts take over from the program's own slow calls: in pieces that agree
// on p50 to 2 % it reads 12 or 18 us, while p95 repeats to 4 %.
const (
	nodeFreshTail = 0.99
	nodeInferTail = 0.95
)

// nodeEnv is one set-up node workload: the pool and a way to build the node
// under test (and, for the traced run, its replay twin) in the measured
// start state.
type nodeEnv struct {
	fresh bool
	warm  int     // pool[:warm] is consumed before timing starts
	piece int     // Serve calls per piece
	tail  float64 // percentile of the latency tail
	min   int     // minimum timed Serve calls, a whole number of pieces
	pool  []trace.Sample
	genNs float64

	// donorState exports a deep copy of the warmed donor's adapters
	// (node_infer only).
	donorState func() []lora.TableState
}

func setupNode(fresh bool, o options) (*nodeEnv, error) {
	env := &nodeEnv{fresh: fresh, warm: o.n(nodeWarm)}
	poolN, piece, minPieces := nodeInferPool, nodeInferPiece, nodeInferMin
	env.tail = nodeInferTail
	if fresh {
		poolN, piece, minPieces = nodeFreshPool, nodeFreshPiece, nodeFreshMin
		env.tail = nodeFreshTail
	}
	env.piece = o.n(piece)
	env.min = minPieces * env.piece
	n := o.n(poolN)
	if n < env.warm+64 {
		n = env.warm + 64
	}
	var err error
	if env.pool, env.genNs, err = genPool(criteo(), o.Seed, n); err != nil {
		return nil, err
	}
	if !fresh {
		// The warmed donor: a full node trained on the warm-up prefix, whose
		// adapters the inference-only node carries read-only.
		// Its rank adaptation is off (the fleet's configuration): Adapter.Resize
		// draws from its RNG in map order, which would hand this bypass
		// workload a different adapter rank, and so a different lookup cost,
		// on every run of the same seed.
		opts := core.DefaultOptions(criteo(), sysSeed)
		opts.LoRA.DisableRankAdapt = true
		donor, err := core.New(opts)
		if err != nil {
			return nil, err
		}
		for _, s := range env.pool[:env.warm] {
			if _, err := donor.Serve(s); err != nil {
				return nil, err
			}
		}
		env.donorState = func() []lora.TableState {
			donor.Lock()
			defer donor.Unlock()
			return donor.LoRA.ExportFull()
		}
	}
	return env, nil
}

// newNode builds the node under test in its measured start state:
// node_fresh is warmed through Serve with the trainer on; node_infer is an
// EnableTraining=false node carrying the donor's adapters.
func (env *nodeEnv) newNode() (*core.System, error) {
	opts := core.DefaultOptions(criteo(), sysSeed)
	if env.fresh {
		sys, err := core.New(opts)
		if err != nil {
			return nil, err
		}
		for _, s := range env.pool[:env.warm] {
			if _, err := sys.Serve(s); err != nil {
				return nil, err
			}
		}
		return sys, nil
	}
	return env.newInferNode(opts)
}

func (env *nodeEnv) newInferNode(opts core.Options) (*core.System, error) {
	opts.EnableTraining = false
	sys, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	state := env.donorState()
	// Publish installs rows at the receiver's rank; match the donor's rank
	// first so the adapters arrive untruncated.
	for t, ts := range state {
		sys.LoRA.Adapters[t].Resize(ts.Rank)
	}
	sys.PublishLoRA(state, 0)
	return sys, nil
}

// sample returns the i-th timed request. node_fresh starts after the warm-up
// prefix; both wrap around the pool.
func (env *nodeEnv) sample(i int) trace.Sample {
	if env.fresh {
		return env.pool[(env.warm+i)%len(env.pool)]
	}
	return env.pool[i%len(env.pool)]
}

// fingerprint is the part of Stats the replay twin must reproduce exactly.
type fingerprint struct {
	Served      uint64
	VirtualTime float64
	TrainSteps  uint64
	P99         float64
}

func fingerprintOf(st core.Stats) fingerprint {
	return fingerprint{st.Served, st.VirtualTime, st.TrainSteps, st.P99}
}

// nodeRun is what the untraced closed loop measured.
type nodeRun struct {
	N       int
	Failed  int64
	Timer   pieceTimer
	Meter   meter
	AUC     float64    // over the first min calls (test-then-train)
	AtMin   core.Stats // snapshot after exactly min calls
	RSSMB   float64    // resident-set high-water mark after exactly min calls
	Final   core.Stats
	Wrapped bool
}

// runNode is the untraced measurement: one goroutine calling Serve in a
// closed loop, piece by piece of env.piece calls, for at least env.min calls
// and at least o.Seconds.
func runNode(env *nodeEnv, sys *core.System, o options) nodeRun {
	var run nodeRun
	probs := make([]float64, 0, env.min)
	labels := make([]int, 0, env.min)
	lat := make([]int64, env.piece)
	budget := time.Duration(o.Seconds * float64(time.Second))
	settleHeap()
	run.Meter.start()
	start := time.Now()
	for run.N < env.min || time.Since(start) < budget {
		run.Timer.start()
		for k := range lat {
			s := env.sample(run.N + k)
			t0 := time.Now()
			resp, err := sys.Serve(s)
			lat[k] = int64(time.Since(t0))
			if err != nil {
				run.Failed++
			}
			if run.N+k < env.min {
				probs = append(probs, resp.Prob)
				labels = append(labels, s.Label)
			}
		}
		run.Timer.stop(len(lat), lat, env.tail)
		if run.N += len(lat); run.N == env.min {
			run.AtMin = sys.Stats()
			run.RSSMB = peakRSSMB()
		}
	}
	run.Meter.stop()
	run.Final = sys.Stats()
	run.AUC = metrics.AUC(probs, labels)
	run.Wrapped = env.fresh && env.warm+run.N > len(env.pool)
	return run
}

// Span names of the node replay twin.
const (
	spServe = iota
	spPredict
	spCommit
	spTick
	spObserve
)

var nodeSpanNames = []string{"core.serve", "serving.predict", "serving.commit", "core.train_tick", "numasim.observe"}

// twinRun is what the traced replay measured.
type twinRun struct {
	Final      core.Stats
	Wall       time.Duration
	Totals     []spanAgg
	AdaptTicks []int64 // ns of ticks during which an adapter ran Algorithm 1
	PlainTicks []int64
	AdaptCount int
}

// replayTwin drives a second node, built with EnableTraining=false, through
// the public pieces of core.System.Serve in Serve's order — Node.Predict,
// Lock/Node.Commit/Unlock, and (when the workload trains) TrainTick then
// Controller.Observe(Node.P99()) on every TrainInterval-th request — with a
// span around each. It replays the warm-up untraced, then n timed requests.
func replayTwin(env *nodeEnv, n int, tr *tracer) (twinRun, error) {
	opts := core.DefaultOptions(criteo(), sysSeed)
	interval := opts.TrainInterval
	var twin *core.System
	var err error
	if env.fresh {
		opts.EnableTraining = false
		twin, err = core.New(opts)
	} else {
		twin, err = env.newInferNode(opts)
	}
	if err != nil {
		return twinRun{}, err
	}
	adaptations := func() int {
		sum := 0
		for _, a := range twin.LoRA.Adapters {
			sum += a.Adaptations()
		}
		return sum
	}
	step := func(s trace.Sample, i int, ln *lane, out *twinRun) {
		if ln != nil {
			ln.begin(spServe, i)
			ln.begin(spPredict, i)
		}
		twin.Node.Predict(s)
		if ln != nil {
			ln.end()
			ln.begin(spCommit, i)
		}
		twin.Lock()
		twin.Node.Commit(s)
		twin.Unlock()
		if ln != nil {
			ln.end()
		}
		if env.fresh && (i+1)%interval == 0 {
			before := 0
			if ln != nil {
				before = adaptations()
				ln.begin(spTick, i)
			}
			twin.TrainTick()
			if ln != nil {
				dur := ln.end()
				if d := adaptations() - before; d > 0 {
					out.AdaptTicks = append(out.AdaptTicks, dur)
					out.AdaptCount += d
				} else {
					out.PlainTicks = append(out.PlainTicks, dur)
				}
				ln.begin(spObserve, i)
			}
			if twin.Controller != nil {
				twin.Controller.Observe(twin.Node.P99())
			}
			if ln != nil {
				ln.end()
			}
		}
		if ln != nil {
			ln.end()
		}
	}
	var out twinRun
	if env.fresh {
		// The request index keeps counting through the warm-up so the tick
		// cadence matches Serve's sinceTrain counter.
		for i, s := range env.pool[:env.warm] {
			step(s, i, nil, nil)
		}
	}
	base := 0
	if env.fresh {
		base = env.warm
	}
	ln := tr.lane("node")
	start := time.Now()
	for i := 0; i < n; i++ {
		step(env.sample(i), base+i, ln, &out)
	}
	out.Wall = time.Since(start)
	out.Final = twin.Stats()
	out.Totals = tr.totals()
	return out, nil
}

func runNodeWorkload(name string, o options) (*result, error) {
	fresh := name == "node_fresh"
	r := newResult(name, o)

	type built struct {
		env *nodeEnv
		sys *core.System
	}
	build := func() (b built, err error) {
		if b.env, err = setupNode(fresh, o); err == nil {
			b.sys, err = b.env.newNode()
		}
		return b, err
	}
	b, own, err := timed(build)
	if err != nil {
		return nil, err
	}
	env := b.env

	run := runNode(env, b.sys, o)
	setups, err := moreSetups(o, own, build, func(built) {})
	if err != nil {
		return nil, err
	}
	n := float64(run.N)
	r.Attempted, r.Failed = int64(run.N), run.Failed
	r.endToEnd(setups, run.Timer.Pieces, float64(run.Meter.Mallocs)/n, run.RSSMB, run.AUC)
	r.note("%d Serve calls in %.2fs (minimum %d), 1 goroutine, closed loop, in pieces of %d calls; auc and virtual statistics taken after exactly %d calls",
		run.N, run.Meter.Wall.Seconds(), env.min, env.piece, env.min)
	if run.Wrapped {
		r.note("the run wrapped the %d-sample pool: samples past the wrap were already trained on", len(env.pool))
	}

	wantServed := uint64(run.N)
	if fresh {
		wantServed += uint64(env.warm)
	}
	r.check("served == requested", run.Final.Served == wantServed, "%d of %d", run.Final.Served, wantServed)
	r.checkAUC(run.AUC)
	if fresh {
		ovh := run.AtMin.MemoryOverhead * 100
		r.check("lora.overhead_pct < 2", ovh < 2, "%.3f%%", ovh)
	}
	if !o.Trace {
		r.finish()
		return r, nil
	}

	// Traced run: the replay twin, then the kernel probes.
	tr := newTracer(nodeSpanNames...)
	twin, err := replayTwin(env, run.N, tr)
	if err != nil {
		return nil, err
	}
	want, got := fingerprintOf(run.Final), fingerprintOf(twin.Final)
	valid := want == got
	r.check("replay twin fingerprint", valid, "untraced %+v, twin %+v", want, got)
	if !valid {
		r.warn("the traced ledger below is INVALID: the twin did not reproduce the untraced run")
	}
	tot := twin.Totals
	r.set("serving.predict_ns", tot[spPredict].meanNs())
	r.set("serving.commit_ns", tot[spCommit].meanNs())
	r.set("core.serve_ns", float64(run.Timer.CallNs)/n)
	r.set("core.train_tick_ns", tot[spTick].meanNs())
	r.set("core.train_tick_count", float64(tot[spTick].Count))
	if tot[spServe].Total > 0 {
		r.set("core.tick_share", float64(tot[spTick].Total)/float64(tot[spServe].Total))
	}
	parts := tot[spPredict].Total + tot[spCommit].Total + tot[spTick].Total + tot[spObserve].Total
	coverage := float64(parts) / float64(run.Timer.CallNs)
	r.set("core.budget_coverage", coverage)
	if coverage < 0.85 || coverage > 1.15 {
		r.warn("core.budget_coverage %.3f is outside 0.85-1.15: the twin's spans do not sum to the untraced Serve time (the rank trajectory differs between the two nodes, see README)", coverage)
	}
	if len(twin.AdaptTicks) > 0 {
		plain := 0.0
		if len(twin.PlainTicks) > 0 {
			plain = median(int64sToFloats(twin.PlainTicks))
		}
		r.set("lora.adapt_ns", mean(int64sToFloats(twin.AdaptTicks))-plain)
	}
	r.set("lora.adapt_count", float64(twin.AdaptCount))
	r.set("lora.rank_final", float64(run.Final.LoRARank))
	r.set("lora.hot_rows_final", float64(run.Final.LoRAHotRows))
	r.set("lora.overhead_pct", run.Final.MemoryOverhead*100)
	r.set("numasim.inf_hit_ratio", run.Final.InferenceHitRatio)
	r.set("trace.gen_ns", env.genNs)
	r.set("bench.virt_p99_ms", run.AtMin.P99*1e3)
	r.set("bench.fail_ratio", float64(run.Failed)/n)
	r.set("bench.trace_overhead_pct", (1-run.Meter.Wall.Seconds()/twin.Wall.Seconds())*100)
	r.note("twin: core.serve self time (loop and span bookkeeping not covered by a child span) %.0f ns/request", float64(tot[spServe].Self)/n)
	probeKernels(r, env.pool, o)
	if err := writeTrace(tr, name, o); err != nil {
		return nil, err
	}
	r.finish()
	return r, nil
}

func int64sToFloats(v []int64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}

// writeTrace writes the retained spans under -out, when one was given.
func writeTrace(tr *tracer, workload string, o options) error {
	if o.OutDir == "" {
		return nil
	}
	path := fmt.Sprintf("%s/trace_%s.json", o.OutDir, workload)
	if err := tr.writeChrome(path); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
