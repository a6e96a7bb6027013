package dlrm

import (
	"fmt"
	"math"
	"testing"

	"liveupdate/internal/emt"
	"liveupdate/internal/lora"
	"liveupdate/internal/tensor"
	"liveupdate/internal/trace"
)

// quantModeOf returns m's published inference weight format.
func quantModeOf(m *Model) QuantMode {
	if m.qmode == "" {
		return QuantNone
	}
	return m.qmode
}

func TestParseQuantMode(t *testing.T) {
	for in, want := range map[string]QuantMode{
		"": QuantNone, "none": QuantNone, "int8": QuantInt8, "f16": QuantF16,
	} {
		got, err := ParseQuantMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseQuantMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseQuantMode("fp8"); err == nil {
		t.Fatal("ParseQuantMode must reject unknown modes")
	}
	if len(QuantModes()) != 3 || QuantModes()[0] != QuantNone {
		t.Fatalf("QuantModes() = %v", QuantModes())
	}
}

func TestSetQuantizationChangesAndRestoresPredictions(t *testing.T) {
	m, b := newSetup(21)
	sparse := [][]int32{{1, 7}, {3}, {9, 11, 2}}
	dense := []float64{0.5, -1, 2, 0.25}
	base := m.Predict(b, dense, sparse)

	for _, mode := range []QuantMode{QuantInt8, QuantF16} {
		if err := m.SetQuantization(mode); err != nil {
			t.Fatal(err)
		}
		if got := quantModeOf(m); got != mode {
			t.Fatalf("published mode %v, want %v", got, mode)
		}
		q := m.Predict(b, dense, sparse)
		if q == base {
			t.Fatalf("quant=%s prediction bit-identical to float64; path not active", mode)
		}
		// Quantization error must stay small — the AUC gate's per-sample analog.
		if math.Abs(q-base) > 0.05 {
			t.Fatalf("quant=%s prediction %v too far from float64 %v", mode, q, base)
		}
		if err := m.SetQuantization(QuantNone); err != nil {
			t.Fatal(err)
		}
		if got := m.Predict(b, dense, sparse); got != base {
			t.Fatalf("restoring none must restore the float64 prediction: %v != %v", got, base)
		}
	}
	if err := m.SetQuantization("fp8"); err == nil {
		t.Fatal("SetQuantization must reject unknown modes")
	}
}

// quantAUCEpsilon is the accuracy gate for quantized inference: a quantized
// model's AUC may differ from the float64 baseline by at most this much, in
// either direction.
const quantAUCEpsilon = 0.01

// TestQuantAUCWithinEpsilon trains a small DLRM in float64 on a shrunk
// criteo profile, then scores one held-out batch with float64 and with each
// quantized mode's weights: |AUC(quantized) − AUC(float64)| ≤
// quantAUCEpsilon. Training never sees quantization (it only snapshots the
// published inference weights), so the delta isolates the kernels' numeric
// error. The baseline must rank well above chance, or any quantized ranking
// near 0.5 would pass the gate.
func TestQuantAUCWithinEpsilon(t *testing.T) {
	const seed, lr = 7, 0.2
	p := trace.Profiles()["criteo"]
	p.NumTables = 4
	p.TableSize = 300
	p.MultiHot = p.MultiHot[:4]
	gen := trace.MustNewGenerator(p, seed)
	rng := tensor.NewRNG(seed ^ 0x6b31)
	model, err := NewModel(ConfigForProfile(p), rng)
	if err != nil {
		t.Fatal(err)
	}
	emb := &BaseEmbeddings{Group: emt.NewGroup(p.NumTables, p.TableSize, p.EmbeddingDim, rng)}
	tr := &Trainer{Model: model, Emb: emb, Opt: SGD{LR: lr}, EmbLR: lr}
	for i := 0; i < 20; i++ {
		tr.TrainBatch(gen.Batch(100, 60))
	}
	eval := gen.Batch(1000, 60)

	base := EvaluateAUC(model, emb, eval)
	if base < 0.65 {
		t.Fatalf("baseline AUC %v too close to chance for the gate to mean anything", base)
	}
	for _, mode := range []QuantMode{QuantInt8, QuantF16} {
		if err := model.SetQuantization(mode); err != nil {
			t.Fatal(err)
		}
		quant := EvaluateAUC(model, emb, eval)
		if delta := math.Abs(quant - base); delta > quantAUCEpsilon {
			t.Errorf("%s: |ΔAUC| = %v exceeds epsilon %v (base %v, quant %v)",
				mode, delta, quantAUCEpsilon, base, quant)
		}
	}
}

// TestCopyWeightsRefreshesQuantSnapshot: a full-sync weight install must
// republish the quantized snapshot, or serving would keep scoring with stale
// weights forever.
func TestCopyWeightsRefreshesQuantSnapshot(t *testing.T) {
	m, b := newSetup(22)
	if err := m.SetQuantization(QuantInt8); err != nil {
		t.Fatal(err)
	}
	sparse := [][]int32{{1}, {2}, {3}}
	dense := []float64{1, 2, 3, 4}
	before := m.Predict(b, dense, sparse)

	fresh, _ := newSetup(99) // different seed → different weights
	m.CopyWeightsFrom(fresh)
	after := m.Predict(b, dense, sparse)
	if after == before {
		t.Fatal("prediction unchanged after CopyWeightsFrom; quant snapshot is stale")
	}
	// The refreshed snapshot must match quantizing the fresh weights directly.
	if err := fresh.SetQuantization(QuantInt8); err != nil {
		t.Fatal(err)
	}
	if want := fresh.Predict(b, dense, sparse); after != want {
		t.Fatalf("refreshed snapshot prediction %v != fresh model's %v", after, want)
	}
}

// TestCloneKeepsQuantMode: clones publish their own snapshot in the same mode.
func TestCloneKeepsQuantMode(t *testing.T) {
	m, b := newSetup(23)
	if err := m.SetQuantization(QuantF16); err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	if got := quantModeOf(c); got != QuantF16 {
		t.Fatalf("clone's published mode %v, want f16", got)
	}
	sparse := [][]int32{{4}, {5}, {6}}
	dense := []float64{0.1, 0.2, 0.3, 0.4}
	if got, want := c.Predict(b, dense, sparse), m.Predict(b, dense, sparse); got != want {
		t.Fatalf("clone prediction %v != original %v", got, want)
	}
}

// TestTrainStepWithSteadyStateAllocs: a reused forward cache makes the whole
// train step — forward, backward, embedding scatter — allocation-free after
// the first sample.
func TestTrainStepWithSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	m, b := newSetup(27)
	sparse := [][]int32{{1, 7}, {3}, {9, 11, 2}}
	dense := []float64{0.5, -1, 2, 0.25}
	var cache ForwardCache
	m.TrainStepWith(b, dense, sparse, 1, 0.05, &cache) // warm the cache buffers
	if a := testing.AllocsPerRun(200, func() {
		m.TrainStepWith(b, dense, sparse, 1, 0.05, &cache)
	}); a != 0 {
		t.Fatalf("TrainStepWith allocates %v per run with a warm cache, want 0", a)
	}
}

// TestQuantizedModelTrainsInFloat: the published snapshot serves
// predictions only. For int8 and f16, Trainer.TrainBatch moves the same bits
// as on the same model with QuantNone — returned losses, base tables,
// adapter state and dense weights — both frozen over a LoRA Set and with SGD
// over the base tables.
func TestQuantizedModelTrainsInFloat(t *testing.T) {
	type result struct {
		losses []float64
		model  *Model
		group  *emt.Group
		set    *lora.Set
	}
	train := func(mode QuantMode, frozen bool) result {
		m, base, samples := frozenFixture(61)
		if err := m.SetQuantization(mode); err != nil {
			t.Fatal(err)
		}
		r := result{model: m, group: base.Group}
		tr := Trainer{Model: m, Emb: base, Opt: SGD{LR: 0.05}, EmbLR: 0.05}
		if frozen {
			set, err := lora.NewSet(base.Group, lora.DefaultConfig(base.Group.Tables[0].Rows(), m.Cfg.EmbeddingDim))
			if err != nil {
				t.Fatal(err)
			}
			r.set = set
			tr = Trainer{Model: m, Emb: r.set, EmbLR: 0.05}
		}
		for i := 0; i+16 <= len(samples); i += 16 {
			r.losses = append(r.losses, tr.TrainBatch(samples[i:i+16]))
		}
		return r
	}
	sameBits := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	for _, frozen := range []bool{true, false} {
		want := train(QuantNone, frozen)
		for _, mode := range []QuantMode{QuantInt8, QuantF16} {
			got := train(mode, frozen)
			name := fmt.Sprintf("%s frozen=%v", mode, frozen)
			if !sameBits(got.losses, want.losses) {
				t.Fatalf("%s: losses %v, float model %v", name, got.losses, want.losses)
			}
			for ti, tab := range got.group.Tables {
				for id := int32(0); int(id) < tab.Rows(); id++ {
					if !sameBits(tab.PeekRow(id), want.group.Tables[ti].PeekRow(id)) {
						t.Fatalf("%s: table %d row %d differs", name, ti, id)
					}
				}
			}
			layers := append(append([]*Layer(nil), got.model.Bottom.Layers...), got.model.Top.Layers...)
			wantLayers := append(append([]*Layer(nil), want.model.Bottom.Layers...), want.model.Top.Layers...)
			for li, l := range layers {
				if !sameBits(l.W.Data, wantLayers[li].W.Data) || !sameBits(l.B, wantLayers[li].B) {
					t.Fatalf("%s: dense layer %d differs", name, li)
				}
			}
			if !frozen {
				continue
			}
			gs, ws := got.set.ExportFull(), want.set.ExportFull()
			for ti := range ws {
				g, w := gs[ti], ws[ti]
				if g.Rank != w.Rank || len(g.Rows) != len(w.Rows) || !sameBits(g.B.Data, w.B.Data) {
					t.Fatalf("%s: adapter %d rank/rows/B differ", name, ti)
				}
				for i := range w.Rows {
					if g.Rows[i].ID != w.Rows[i].ID || !sameBits(g.Rows[i].Row, w.Rows[i].Row) {
						t.Fatalf("%s: adapter %d row %d differs", name, ti, w.Rows[i].ID)
					}
				}
			}
		}
		if frozen && want.set.Adapters[0].ActiveCount() == 0 {
			t.Fatal("the LoRA arm trained no adapter row — fixture proves nothing")
		}
	}
}
