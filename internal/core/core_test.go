package core

import (
	"testing"
	"time"

	"liveupdate/internal/dlrm"
	"liveupdate/internal/emt"
	"liveupdate/internal/metrics"
	"liveupdate/internal/numasim"
	"liveupdate/internal/tensor"
	"liveupdate/internal/trace"
)

func testProfile() trace.Profile {
	p := trace.Profiles()["criteo"]
	p.NumTables = 3
	p.TableSize = 300
	p.NumDense = 4
	p.MultiHot = []int{1, 1, 1}
	return p
}

func testOptions() Options {
	o := DefaultOptions(testProfile(), 9)
	o.TrainInterval = 4
	o.TrainBatch = 8
	return o
}

func TestOptionsValidate(t *testing.T) {
	if err := testOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testOptions()
	bad.TrainBatch = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero batch must fail when training enabled")
	}
	bad.EnableTraining = false
	if err := bad.Validate(); err != nil {
		t.Fatal("training params irrelevant when training disabled")
	}
	bad = testOptions()
	bad.EmbLR = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero LR must fail")
	}
	if _, err := New(Options{}); err == nil {
		t.Fatal("New must reject empty options")
	}
}

func TestServeInterleavesTraining(t *testing.T) {
	s := MustNew(testOptions())
	gen := trace.MustNewGenerator(testProfile(), 3)
	for i := 0; i < 40; i++ {
		s.Serve(gen.Next())
	}
	if s.Stats().TrainSteps == 0 {
		t.Fatal("training ticks must run during serving")
	}
	// Training populated the LoRA tables.
	active := 0
	for _, a := range s.LoRA.Adapters {
		active += a.ActiveCount()
	}
	if active == 0 {
		t.Fatal("co-located training must populate adapters")
	}
	if s.Node.served != 40 {
		t.Fatalf("served %d", s.Node.served)
	}
}

func TestTrainingDisabled(t *testing.T) {
	o := testOptions()
	o.EnableTraining = false
	s := MustNew(o)
	gen := trace.MustNewGenerator(testProfile(), 3)
	for i := 0; i < 40; i++ {
		s.Serve(gen.Next())
	}
	if s.Stats().TrainSteps != 0 {
		t.Fatal("Only-Infer configuration must not train")
	}
}

func TestTrainTickEmptyRing(t *testing.T) {
	s := MustNew(testOptions())
	s.TrainTick() // no samples served yet: must be a no-op
	if s.Stats().TrainSteps != 0 {
		t.Fatal("empty ring must not count a training step")
	}
}

// A warm node's training tick — the memory-model charges and the Trainer's
// forward, backward and adapter steps — allocates nothing, with and without
// the reuse path.
func TestTrainTickSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := trace.Profiles()["criteo"]
	for _, reuse := range []bool{true, false} {
		o := DefaultOptions(p, 42)
		o.EnableReuse = reuse
		s, gen := MustNew(o), trace.MustNewGenerator(p, 7)
		for i := 0; i < 4000; i++ {
			if _, err := s.Serve(gen.Next()); err != nil {
				t.Fatal(err)
			}
		}
		if a := testing.AllocsPerRun(100, s.TrainTick); a != 0 {
			t.Errorf("reuse %v: TrainTick allocates %v per run on a warm node, want 0", reuse, a)
		}
	}
}

func TestBaseStaysFrozenDuringServing(t *testing.T) {
	s := MustNew(testOptions())
	gen := trace.MustNewGenerator(testProfile(), 5)
	for i := 0; i < 60; i++ {
		s.Serve(gen.Next())
	}
	if s.Base.DirtyRatio() != 0 {
		t.Fatal("co-located LoRA training must never write the base EMT")
	}
}

func TestSchedulingTogglesController(t *testing.T) {
	o := testOptions()
	o.EnableScheduling = false
	s := MustNew(o)
	if s.Controller != nil {
		t.Fatal("controller must be nil when scheduling disabled")
	}
	// With scheduling disabled, both workloads share all CCDs.
	if len(s.Machine.CCDsOf(numasim.Training)) != o.Machine.NumCCDs {
		t.Fatal("unscheduled machine must share all CCDs")
	}
	o.EnableScheduling = true
	s2 := MustNew(o)
	if s2.Controller == nil {
		t.Fatal("controller must exist when scheduling enabled")
	}
	if len(s2.Machine.CCDsOf(numasim.Inference)) >= o.Machine.NumCCDs {
		t.Fatal("scheduling must partition CCDs")
	}
}

func TestReuseLowersTrainingDRAMTraffic(t *testing.T) {
	run := func(reuse bool) int64 {
		o := testOptions()
		o.EnableReuse = reuse
		s := MustNew(o)
		gen := trace.MustNewGenerator(testProfile(), 7)
		for i := 0; i < 200; i++ {
			s.Serve(gen.Next())
		}
		return s.Machine.DRAMBytes(numasim.Training)
	}
	with := run(true)
	without := run(false)
	if with >= without {
		t.Fatalf("reuse must cut training DRAM traffic: with %d without %d", with, without)
	}
}

func TestFullSyncInstallsFreshState(t *testing.T) {
	s := MustNew(testOptions())
	gen := trace.MustNewGenerator(testProfile(), 11)
	for i := 0; i < 50; i++ {
		s.Serve(gen.Next())
	}
	// Build a "training cluster" state to install.
	rng := tensor.NewRNG(99)
	freshModel, err := dlrm.NewModel(dlrm.ConfigForProfile(testProfile()), rng)
	if err != nil {
		t.Fatal(err)
	}
	freshBase := emt.NewGroup(3, 300, 16, rng)
	s.FullSync(freshBase, freshModel)
	if s.Stats().FullSyncs != 1 {
		t.Fatalf("full syncs %d", s.Stats().FullSyncs)
	}
	for _, a := range s.LoRA.Adapters {
		if a.ActiveCount() != 0 {
			t.Fatal("full sync must reset adapters")
		}
	}
	// Base must equal the fresh weights.
	got := s.Base.Tables[0].PeekRow(0)
	want := freshBase.Tables[0].PeekRow(0)
	for i := range got {
		if got[i] != want[i] {
			t.Fatal("full sync must install fresh base weights")
		}
	}
	// The model must serve the installed dense weights: a forward that read
	// a stale packed transpose would not match the fresh model bit for bit.
	src := &dlrm.BaseEmbeddings{Group: freshBase}
	for i := 0; i < 20; i++ {
		smp := gen.Next()
		if got, want := s.Model.Predict(src, smp.Dense, smp.Sparse), freshModel.Predict(src, smp.Dense, smp.Sparse); got != want {
			t.Fatalf("sample %d: synced model predicts %v, fresh model %v", i, got, want)
		}
	}
}

func TestMemoryOverheadBounded(t *testing.T) {
	s := MustNew(testOptions())
	gen := trace.MustNewGenerator(testProfile(), 13)
	for i := 0; i < 400; i++ {
		s.Serve(gen.Next())
	}
	// Paper claim: adapter memory < ~2-5% of EMTs under pruning. Our scaled
	// tables are small, so allow a loose but meaningful bound.
	if ov := s.MemoryOverhead(); ov <= 0 || ov > 0.30 {
		t.Fatalf("memory overhead %v out of expected band", ov)
	}
}

func TestPowerAndUtilization(t *testing.T) {
	s := MustNew(testOptions())
	pOn := s.Power(0.5)
	o := testOptions()
	o.EnableTraining = false
	sOff := MustNew(o)
	pOff := sOff.Power(0.5)
	if pOn <= pOff {
		t.Fatalf("co-located training must raise power: %v vs %v", pOn, pOff)
	}
	uOn := s.CPUUtilization(0.2)
	uOff := sOff.CPUUtilization(0.2)
	if uOn <= uOff {
		t.Fatalf("training must raise utilization: %v vs %v", uOn, uOff)
	}
	if u := s.CPUUtilization(5); u > 1 {
		t.Fatalf("utilization must clamp at 1, got %v", u)
	}
}

func TestIsolationAblationP99Ordering(t *testing.T) {
	// The Fig 16 property: P99(full system) < P99(naive co-location), and
	// only-inference is the floor.
	run := func(training, scheduling, reuse bool) float64 {
		o := testOptions()
		o.EnableTraining = training
		o.EnableScheduling = scheduling
		o.EnableReuse = reuse
		o.Machine.L3BlocksPerCCD = 48 // tight caches make contention visible
		s := MustNew(o)
		gen := trace.MustNewGenerator(testProfile(), 21)
		for i := 0; i < 600; i++ {
			s.Serve(gen.Next())
		}
		return s.Node.P99()
	}
	onlyInfer := run(false, false, false)
	naive := run(true, false, false)
	full := run(true, true, true)
	if naive <= onlyInfer {
		t.Fatalf("naive co-location should hurt P99: %v vs %v", naive, onlyInfer)
	}
	if full >= naive {
		t.Fatalf("isolation should recover P99: full %v vs naive %v", full, naive)
	}
}

// TestServeBatchMatchesSequential: the batch-amortized path gives every
// request the latency a plain Serve loop gives it, at every batch size. That
// the node's statistics match too is the determinism matrix's, whose batched
// cells reach System.ServeBatch through the cluster (TestDeterminismMatrix
// at the repository root).
func TestServeBatchMatchesSequential(t *testing.T) {
	const requests = 600
	seq := MustNew(testOptions())
	gen := trace.MustNewGenerator(testProfile(), 5)
	want := make([]Response, requests)
	for i := range want {
		r, err := seq.Serve(gen.Next())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	for _, batch := range []int{1, 3, 16, 64} {
		bat := MustNew(testOptions())
		gen := trace.MustNewGenerator(testProfile(), 5)
		samples := make([]trace.Sample, batch)
		got := make([]Response, batch)
		for start := 0; start < requests; start += batch {
			n := min(batch, requests-start)
			for k := range samples[:n] {
				samples[k] = gen.Next()
			}
			if err := bat.ServeBatch(samples[:n], got[:n]); err != nil {
				t.Fatal(err)
			}
			for k, r := range got[:n] {
				if r.Latency != want[start+k].Latency {
					t.Fatalf("batch=%d req %d: latency %v != %v", batch, start+k, r.Latency, want[start+k].Latency)
				}
			}
		}
	}
}

// TestServeBatchValidation covers the error paths: mismatched response slots
// and malformed samples (checked before any state mutates).
func TestServeBatchValidation(t *testing.T) {
	s := MustNew(testOptions())
	gen := trace.MustNewGenerator(testProfile(), 6)
	good := gen.Next()
	if err := s.ServeBatch([]trace.Sample{good}, make([]Response, 2)); err == nil {
		t.Fatal("length mismatch must error")
	}
	bad := good
	bad.Sparse = bad.Sparse[:1]
	if err := s.ServeBatch([]trace.Sample{good, bad}, make([]Response, 2)); err == nil {
		t.Fatal("malformed sample must error")
	}
	if got := s.Stats().Served; got != 0 {
		t.Fatalf("failed batch must serve nothing, served %d", got)
	}
	if err := s.ServeBatch(nil, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestServeCommitSpans: with every span sampled, a ServeBatch whose last
// commit fires a training tick records one commit span and one train_tick
// span — no second, empty commit span reopened after the tick — and each
// Serve records exactly one commit span.
func TestServeCommitSpans(t *testing.T) {
	o := testOptions()
	o.Telemetry = metrics.NewTelemetry(metrics.TelemetryConfig{SampleEvery: 1})
	s := MustNew(o)
	tr := o.Telemetry.Tracer()
	gen := trace.MustNewGenerator(testProfile(), 8)
	spans := func(serve func()) (commit, tick uint64) {
		before := tr.StageTotals()
		serve()
		after := tr.StageTotals()
		return after[metrics.StageCommit].Count - before[metrics.StageCommit].Count,
			after[metrics.StageTrainTick].Count - before[metrics.StageTrainTick].Count
	}
	batch := make([]trace.Sample, o.TrainInterval)
	for i := range batch {
		batch[i] = gen.Next()
	}
	commit, tick := spans(func() {
		if err := s.ServeBatch(batch, make([]Response, len(batch))); err != nil {
			t.Fatal(err)
		}
	})
	if commit != 1 || tick != 1 {
		t.Fatalf("ServeBatch of one tick interval: %d commit and %d train_tick spans, want 1 and 1", commit, tick)
	}
	ticks := uint64(0)
	for i := 0; i < 2*o.TrainInterval; i++ {
		commit, tick := spans(func() {
			if _, err := s.Serve(gen.Next()); err != nil {
				t.Fatal(err)
			}
		})
		if commit != 1 {
			t.Fatalf("Serve %d: %d commit spans, want 1", i, commit)
		}
		ticks += tick
	}
	if ticks != 2 {
		t.Fatalf("%d Serves recorded %d train_tick spans, want 2", 2*o.TrainInterval, ticks)
	}
}

// TestMalformedSampleLeavesNodeUsable: a sample whose dense width or ids do
// not fit the profile is an error from Serve and ServeBatch, not a panic
// inside the forward — which would leave paramMu read-locked, so the next
// training tick would block for good.
func TestMalformedSampleLeavesNodeUsable(t *testing.T) {
	p := testProfile()
	good := trace.MustNewGenerator(p, 8).Next()
	withDense := func(n int) trace.Sample {
		s := good
		s.Dense = make([]float64, n)
		return s
	}
	withID := func(id int32) trace.Sample {
		s := good
		s.Sparse = append([][]int32{{id}}, good.Sparse[1:]...)
		return s
	}
	for _, tc := range []struct {
		name string
		bad  trace.Sample
	}{
		{"short dense", withDense(p.NumDense - 1)},
		{"long dense", withDense(p.NumDense + 1)},
		{"negative id", withID(-1)},
		{"id == TableSize", withID(int32(p.TableSize))},
	} {
		for _, batched := range []bool{false, true} {
			s := MustNew(testOptions())
			// A non-empty ring: the tick below then takes paramMu.
			if _, err := s.Serve(good); err != nil {
				t.Fatal(err)
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s (batched %v): panicked: %v", tc.name, batched, r)
					}
				}()
				var err error
				if batched {
					err = s.ServeBatch([]trace.Sample{good, tc.bad}, make([]Response, 2))
				} else {
					_, err = s.Serve(tc.bad)
				}
				if err == nil {
					t.Errorf("%s (batched %v): accepted", tc.name, batched)
				}
			}()
			done := make(chan struct{})
			go func() {
				s.TrainTick()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatalf("%s (batched %v): TrainTick blocked: the rejected sample left the node locked", tc.name, batched)
			}
			if _, err := s.Serve(good); err != nil {
				t.Fatalf("%s (batched %v): serving after the rejection: %v", tc.name, batched, err)
			}
		}
	}
}

// TestQuantizationReachesServing: on one system, flipping quantization
// moves the served probability and flipping it back restores it exactly.
// That no virtual-time statistic moves with the mode is the determinism
// matrix's (TestDeterminismMatrix at the repository root).
func TestQuantizationReachesServing(t *testing.T) {
	s := MustNew(testOptions())
	sample := trace.MustNewGenerator(testProfile(), 5).Next()
	before := s.Node.Predict(sample)
	if err := s.Model.SetQuantization("int8"); err != nil {
		t.Fatal(err)
	}
	if got := s.Node.Predict(sample); got == before {
		t.Fatal("quant=int8 served a bit-identical probability; quantized path not active")
	}
	if err := s.Model.SetQuantization("none"); err != nil {
		t.Fatal(err)
	}
	if got := s.Node.Predict(sample); got != before {
		t.Fatalf("restoring quant=none must restore the float64 probability: %v != %v", got, before)
	}
}

func TestQuantizationOptionValidation(t *testing.T) {
	o := testOptions()
	o.Quantization = "int7"
	if _, err := New(o); err == nil {
		t.Fatal("invalid quantization mode must fail validation")
	}
}
