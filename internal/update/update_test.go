package update

import (
	"math"
	"testing"

	"liveupdate/internal/dlrm"
	"liveupdate/internal/trace"
)

func costModel(name string) CostModel {
	return DefaultCostModel(trace.Profiles()[name])
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		NoUpdate: "NoUpdate", DeltaUpdate: "DeltaUpdate",
		QuickUpdate: "QuickUpdate", LiveUpdate: "LiveUpdate", Kind(9): "Kind(9)",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%d → %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestDirtyRatioScaling(t *testing.T) {
	cm := costModel("bd-tb")
	r10 := cm.dirtyRatioForWindow(600)
	r30 := cm.dirtyRatioForWindow(1800)
	r60 := cm.dirtyRatioForWindow(3600)
	if math.Abs(r10-cm.Profile.UpdateRatio10Min) > 1e-12 {
		t.Fatalf("10-min ratio %v != profile %v", r10, cm.Profile.UpdateRatio10Min)
	}
	// Concave growth: r30 < 3·r10, r60 < 6·r10, but monotone (Fig 3a shape).
	if !(r10 < r30 && r30 < r60) {
		t.Fatalf("ratios not monotone: %v %v %v", r10, r30, r60)
	}
	if r30 >= 3*r10 || r60 >= 6*r10 {
		t.Fatalf("ratios must grow sublinearly: %v %v %v", r10, r30, r60)
	}
	// Cap at 1.
	if cm.dirtyRatioForWindow(1e12) != 1 {
		t.Fatal("ratio must cap at 1")
	}
}

func TestUpdateCostOrdering(t *testing.T) {
	// Paper Fig 14: at high frequency (5-min), LiveUpdate < QuickUpdate <
	// DeltaUpdate, and NoUpdate is free.
	cm := costModel("bd-tb")
	w := 300.0
	no := cm.UpdateCost(NoUpdate, w)
	live := cm.UpdateCost(LiveUpdate, w)
	quick := cm.UpdateCost(QuickUpdate, w)
	delta := cm.UpdateCost(DeltaUpdate, w)
	if no != 0 {
		t.Fatalf("NoUpdate cost %v", no)
	}
	if !(live < quick && quick < delta) {
		t.Fatalf("cost order violated: live %v quick %v delta %v", live, quick, delta)
	}
}

func TestHourlyCostShape(t *testing.T) {
	cm := costModel("avazu-tb")
	// DeltaUpdate at 5-min frequency must exceed the hour (paper: >60 min on
	// Avazu-TB).
	if h := cm.HourlyCost(DeltaUpdate, 300); h < 3600 {
		t.Fatalf("Delta hourly %v s, paper says > 1 hour", h)
	}
	// LiveUpdate hourly cost in the paper's 3-5 minute band.
	if h := cm.HourlyCost(LiveUpdate, 300); h < 120 || h > 360 {
		t.Fatalf("LiveUpdate hourly %v s outside 2-6 min band", h)
	}
	// LiveUpdate reduces cost ≥2x vs QuickUpdate at 5-min frequency.
	q := cm.HourlyCost(QuickUpdate, 300)
	l := cm.HourlyCost(LiveUpdate, 300)
	if q/l < 2 {
		t.Fatalf("LiveUpdate should be ≥2x cheaper: quick %v live %v", q, l)
	}
	// LiveUpdate's cost is roughly frequency-independent; Delta's is not.
	l20 := cm.HourlyCost(LiveUpdate, 1200)
	if math.Abs(l-l20)/l > 0.25 {
		t.Fatalf("LiveUpdate cost should not depend on frequency: %v vs %v", l, l20)
	}
	d5, d20 := cm.HourlyCost(DeltaUpdate, 300), cm.HourlyCost(DeltaUpdate, 1200)
	if d5 <= d20 {
		t.Fatalf("Delta cost must grow with frequency: %v vs %v", d5, d20)
	}
	if cm.HourlyCost(NoUpdate, 300) != 0 {
		t.Fatal("NoUpdate hourly must be 0")
	}
}

func TestQuickBytesAndTransfer(t *testing.T) {
	cm := costModel("bd-tb")
	want := int64(0.05 * float64(cm.Profile.PaperEMTBytes))
	if got := cm.QuickBytes(); got != want {
		t.Fatalf("quick bytes %d, want %d", got, want)
	}
	// 2.5 TB over 100 GbE ≈ 220 s + base latency.
	secs := cm.TransferSeconds(cm.QuickBytes())
	if secs < 180 || secs > 300 {
		t.Fatalf("quick transfer %v s implausible", secs)
	}
}

func TestTimelineFig8Shape(t *testing.T) {
	cm := costModel("bd-tb")
	delta := cm.Timeline(DeltaUpdate, 300, 3600)
	quick := cm.Timeline(QuickUpdate, 300, 3600)
	live := cm.Timeline(LiveUpdate, 300, 3600)
	if cm.Timeline(NoUpdate, 300, 3600) != nil {
		t.Fatal("NoUpdate timeline must be empty")
	}
	// LiveUpdate delivers the most versions (paper: most frequent updates).
	if !(len(live) > len(quick) && len(quick) >= len(delta)) {
		t.Fatalf("version counts: live %d quick %d delta %d", len(live), len(quick), len(delta))
	}
	// Events are time-ordered per kind and within the horizon.
	for _, events := range [][]VersionEvent{delta, quick} {
		last := 0.0
		for _, e := range events {
			if e.Time < last {
				t.Fatal("timeline not ordered")
			}
			last = e.Time
		}
	}
	// LiveUpdate's first version lands far earlier than DeltaUpdate's.
	if live[0].Time >= delta[0].Time {
		t.Fatalf("first live version %v not before first delta %v", live[0].Time, delta[0].Time)
	}
}

func harnessProfile() trace.Profile {
	p := trace.Profiles()["criteo"]
	p.NumTables = 3
	p.TableSize = 300
	p.NumDense = 4
	p.MultiHot = []int{1, 1, 1}
	p.DriftRate = 0.8 // fast drift so staleness shows quickly in short tests
	return p
}

func quickHarnessConfig(k Kind) HarnessConfig {
	cfg := DefaultHarnessConfig(harnessProfile(), k, 42)
	cfg.SamplesPerWindow = 250
	cfg.FullSyncEvery = 8
	return cfg
}

func TestHarnessValidate(t *testing.T) {
	good := quickHarnessConfig(DeltaUpdate)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.WindowSec = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero window must fail")
	}
	bad = good
	bad.UpdateEvery = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero update interval must fail")
	}
	bad = quickHarnessConfig(QuickUpdate)
	bad.QuickAlpha = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("quick alpha 0 must fail")
	}
	if _, err := NewHarness(HarnessConfig{}); err == nil {
		t.Fatal("NewHarness must reject empty config")
	}
}

func TestHarnessDeltaTracksTrainer(t *testing.T) {
	cfg := quickHarnessConfig(DeltaUpdate)
	cfg.SyncDelayWindows = -1 // instant sync: replica must equal the trainer
	h := MustNewHarness(cfg)
	h.Pretrain(2)
	res := h.Run(4)
	if len(res.AUCSeries) != 4 {
		t.Fatalf("series %d", len(res.AUCSeries))
	}
	if res.Syncs == 0 {
		t.Fatal("delta must sync")
	}
	if res.Bytes <= 0 {
		t.Fatal("delta must ship bytes")
	}
	// After a delta sync, inference tables equal trainer tables.
	h.sync()
	for ti, tt := range h.TrainerGroup().Tables {
		inf := h.infGroup.Tables[ti]
		for id := int32(0); id < 20; id++ {
			a, b := tt.PeekRow(id), inf.PeekRow(id)
			for i := range a {
				if a[i] != b[i] {
					t.Fatal("delta sync must converge replica to trainer")
				}
			}
		}
	}
}

func TestHarnessNoUpdateShipsNothing(t *testing.T) {
	h := MustNewHarness(quickHarnessConfig(NoUpdate))
	h.Pretrain(1)
	res := h.Run(4)
	if res.Bytes != 0 || res.Syncs != 0 || res.FullSyncs != 0 {
		t.Fatalf("NoUpdate must be free: %+v", res)
	}
}

func TestHarnessQuickShipsLessThanDelta(t *testing.T) {
	dh := MustNewHarness(quickHarnessConfig(DeltaUpdate))
	dh.Pretrain(2)
	dres := dh.Run(6)
	qcfg := quickHarnessConfig(QuickUpdate)
	qcfg.FullSyncEvery = 0 // isolate the periodic sync volume
	qh := MustNewHarness(qcfg)
	qh.Pretrain(2)
	qres := qh.Run(6)
	if qres.Bytes >= dres.Bytes {
		t.Fatalf("quick bytes %d must be below delta bytes %d", qres.Bytes, dres.Bytes)
	}
}

func TestHarnessLiveUpdateLocalTraining(t *testing.T) {
	cfg := quickHarnessConfig(LiveUpdate)
	cfg.FullSyncEvery = 0 // no full syncs: all freshness is local
	h := MustNewHarness(cfg)
	h.Pretrain(2)
	res := h.Run(4)
	if res.Bytes != 0 {
		t.Fatalf("pure-local LiveUpdate must ship nothing, shipped %d", res.Bytes)
	}
	if h.LoRASet() == nil {
		t.Fatal("LiveUpdate harness must have adapters")
	}
	active := 0
	for _, a := range h.LoRASet().Adapters {
		active += a.ActiveCount()
	}
	if active == 0 {
		t.Fatal("local training must populate LoRA tables")
	}
	if res.LoRAOverhead <= 0 {
		t.Fatal("overhead ratio must be positive")
	}
}

func TestHarnessFullSyncResetsLoRA(t *testing.T) {
	cfg := quickHarnessConfig(LiveUpdate)
	cfg.FullSyncEvery = 3
	h := MustNewHarness(cfg)
	h.Pretrain(1)
	h.Run(3) // window 3 triggers full sync
	res := h.Result()
	if res.FullSyncs != 1 {
		t.Fatalf("full syncs %d, want 1", res.FullSyncs)
	}
	for _, a := range h.LoRASet().Adapters {
		if a.ActiveCount() != 0 {
			t.Fatal("full sync must reset adapters")
		}
	}
	if res.Bytes <= 0 {
		t.Fatal("full sync must be charged")
	}
}

func TestStalenessHurtsAndUpdatesHelp(t *testing.T) {
	// The core Fig 3b property at harness level: NoUpdate's late-window AUC
	// falls below DeltaUpdate's.
	const windows = 10
	no := MustNewHarness(quickHarnessConfig(NoUpdate))
	no.Pretrain(3)
	nres := no.Run(windows)
	delta := MustNewHarness(quickHarnessConfig(DeltaUpdate))
	delta.Pretrain(3)
	dres := delta.Run(windows)
	lateNo := mean(nres.AUCSeries[windows/2:])
	lateDelta := mean(dres.AUCSeries[windows/2:])
	if lateDelta <= lateNo {
		t.Fatalf("updates must beat staleness: delta %v vs noupdate %v", lateDelta, lateNo)
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestSyncDelayPipeline(t *testing.T) {
	// With a 1-window delay, a sync must install the snapshot from one
	// window ago, not the live trainer state.
	cfg := quickHarnessConfig(DeltaUpdate)
	cfg.UpdateEvery = 1
	cfg.FullSyncEvery = 0
	cfg.SyncDelayWindows = 1
	cfg.TrainerSampleFrac = 1
	h := MustNewHarness(cfg)
	h.Pretrain(1)
	h.Step() // window 1: trains, snapshots, syncs (delayed source = pretrain state)
	// After window 1's sync the replica should hold the state from *before*
	// window 1's training, i.e. differ from the live trainer.
	diff := false
	tt := h.TrainerGroup().Tables[0]
	inf := h.infGroup.Tables[0]
	for id := int32(0); int(id) < tt.Rows() && !diff; id++ {
		a, b := tt.PeekRow(id), inf.PeekRow(id)
		for i := range a {
			if a[i] != b[i] {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Fatal("delayed sync must lag the live trainer")
	}
	// With delay disabled the replica converges to the trainer exactly.
	cfg.SyncDelayWindows = -1
	h2 := MustNewHarness(cfg)
	h2.Pretrain(1)
	h2.Step()
	tt2 := h2.TrainerGroup().Tables[0]
	inf2 := h2.infGroup.Tables[0]
	for id := int32(0); int(id) < tt2.Rows(); id++ {
		a, b := tt2.PeekRow(id), inf2.PeekRow(id)
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("instant sync must match the live trainer")
			}
		}
	}
}

func TestTrainerSampleFraction(t *testing.T) {
	h := MustNewHarness(quickHarnessConfig(DeltaUpdate))
	samples := make([]trace.Sample, 100)
	h.Cfg.TrainerSampleFrac = 0.25
	if got := len(h.trainerShare(samples)); got != 25 {
		t.Fatalf("quarter share %d, want 25", got)
	}
	h.Cfg.TrainerSampleFrac = 1
	if got := len(h.trainerShare(samples)); got != 100 {
		t.Fatalf("full share %d, want 100", got)
	}
	h.Cfg.TrainerSampleFrac = 0 // default 0.5
	if got := len(h.trainerShare(samples)); got != 50 {
		t.Fatalf("default share %d, want 50", got)
	}
	if h.trainerShare(nil) != nil {
		t.Fatal("empty share must be nil")
	}
}

func TestDefaultDelayPerStrategy(t *testing.T) {
	p := harnessProfile()
	if d := DefaultHarnessConfig(p, DeltaUpdate, 1).SyncDelayWindows; d != 2 {
		t.Fatalf("delta delay %d, want 2 (Fig 14 payload arithmetic)", d)
	}
	if d := DefaultHarnessConfig(p, QuickUpdate, 1).SyncDelayWindows; d != 1 {
		t.Fatalf("quick delay %d, want 1", d)
	}
}

func TestSetDenseOpt(t *testing.T) {
	h := MustNewHarness(quickHarnessConfig(DeltaUpdate))
	h.SetDenseOpt(dlrmAdagrad())
	h.Pretrain(1)
	if got := h.Run(2); len(got.AUCSeries) != 2 {
		t.Fatalf("run with adagrad failed: %+v", got)
	}
}

func dlrmAdagrad() dlrm.Optimizer { return dlrm.Adagrad{LR: 0.05} }

// The trainers live on the Harness across windows, so an optimizer set
// mid-run must still be the one the next Step trains with.
func TestSetDenseOptAppliesToNextStep(t *testing.T) {
	run := func(swap bool) []float64 {
		h := MustNewHarness(quickHarnessConfig(DeltaUpdate))
		h.Pretrain(1)
		h.Step()
		if swap {
			h.SetDenseOpt(dlrmAdagrad())
		}
		h.Step()
		return h.trainModel.Top.Layers[0].W.Data
	}
	sgd, adagrad := run(false), run(true)
	for i := range sgd {
		if sgd[i] != adagrad[i] {
			return
		}
	}
	t.Fatal("SetDenseOpt between Steps changed nothing: the long-lived trainer kept its old optimizer")
}
