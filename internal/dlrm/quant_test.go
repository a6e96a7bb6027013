package dlrm

import (
	"math"
	"testing"

	"liveupdate/internal/emt"
	"liveupdate/internal/tensor"
	"liveupdate/internal/trace"
)

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
		if m.QuantMode() != mode {
			t.Fatalf("QuantMode() = %v, want %v", m.QuantMode(), mode)
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
	if c.QuantMode() != QuantF16 {
		t.Fatalf("clone QuantMode() = %v, want f16", c.QuantMode())
	}
	sparse := [][]int32{{4}, {5}, {6}}
	dense := []float64{0.1, 0.2, 0.3, 0.4}
	if got, want := c.Predict(b, dense, sparse), m.Predict(b, dense, sparse); got != want {
		t.Fatalf("clone prediction %v != original %v", got, want)
	}
}

// TestQuantPredictZeroAlloc: the quantized serving path must stay on the
// zero-allocation fast path — activation quantization runs through the
// scratch's int8 buffer.
func TestQuantPredictZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, mode := range []QuantMode{QuantInt8, QuantF16} {
		m, b := newSetup(24)
		if err := m.SetQuantization(mode); err != nil {
			t.Fatal(err)
		}
		sc := m.NewScratch()
		sparse := [][]int32{{1, 7}, {3}, {9, 11, 2}}
		dense := []float64{0.5, -1, 2, 0.25}
		if n := testing.AllocsPerRun(200, func() { m.PredictWith(b, dense, sparse, sc) }); n != 0 {
			t.Fatalf("quant=%s PredictWith allocates %v per run, want 0", mode, n)
		}
	}
}

// TestPredictBatchZeroAlloc: the batched GEMM path must be allocation-free in
// steady state (warmed batch-scratch pool), for the float and quantized paths.
func TestPredictBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, mode := range []QuantMode{QuantNone, QuantInt8} {
		m, b := newSetup(25)
		if err := m.SetQuantization(mode); err != nil {
			t.Fatal(err)
		}
		const n = 16
		dense := make([][]float64, n)
		sparse := make([][][]int32, n)
		for i := range dense {
			dense[i] = []float64{float64(i), 1, -1, 0.5}
			sparse[i] = [][]int32{{int32(i)}, {int32(2 * i)}, {int32(i), int32(i + 1)}}
		}
		out := make([]float64, n)
		m.PredictBatch(b, dense, sparse, out, nil) // warm the pool
		if a := testing.AllocsPerRun(200, func() { m.PredictBatch(b, dense, sparse, out, nil) }); a != 0 {
			t.Fatalf("quant=%s PredictBatch allocates %v per run, want 0", mode, a)
		}
	}
}

// TestQuantPredictBatchMatchesSequential: the batched quantized path must be
// bit-identical to per-sample quantized Predicts, like the float path.
func TestQuantPredictBatchMatchesSequential(t *testing.T) {
	m, b := newSetup(26)
	if err := m.SetQuantization(QuantInt8); err != nil {
		t.Fatal(err)
	}
	const n = 9 // odd: exercises the 2x2 tile remainder
	dense := make([][]float64, n)
	sparse := make([][][]int32, n)
	for i := range dense {
		dense[i] = []float64{float64(i) * 0.3, -1, 2, 0.25}
		sparse[i] = [][]int32{{int32(i)}, {int32(i + 3)}, {int32(i), int32(i + 1)}}
	}
	out := make([]float64, n)
	m.PredictBatch(b, dense, sparse, out, nil)
	for i := range out {
		if want := m.Predict(b, dense[i], sparse[i]); out[i] != want {
			t.Fatalf("quant batch[%d] = %v, want %v", i, out[i], want)
		}
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

// TestInferBatchIntoMatchesInferInto: MLP batch GEMM inference is
// bit-identical to per-sample InferInto for odd batch sizes.
func TestInferBatchIntoMatchesInferInto(t *testing.T) {
	rng := tensor.NewRNG(31)
	mlp := NewMLP(rng, []int{5, 7, 3})
	const n = 5
	x := tensor.RandomMatrix(rng, n, 5, 1)
	bs := mlp.NewBatchScratch(n)
	out := mlp.InferBatchInto(x, bs)
	sc := mlp.NewScratch()
	for i := 0; i < n; i++ {
		want := mlp.InferInto(x.Row(i), sc)
		for j, v := range want {
			if out.Row(i)[j] != v {
				t.Fatalf("batch row %d elem %d: %v != %v", i, j, out.Row(i)[j], v)
			}
		}
	}
}
