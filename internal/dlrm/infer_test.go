package dlrm

import (
	"math"
	"testing"

	"liveupdate/internal/emt"
	"liveupdate/internal/lora"
	"liveupdate/internal/tensor"
	"liveupdate/internal/trace"
)

// inferSources returns the two embedding sources the inference matrix scores
// through, over one base group: the base tables themselves, and a LoRA Set
// whose adapters were trained (dense layers frozen) until they hold hot rows.
func inferSources(t *testing.T, m *Model, samples []trace.Sample) map[string]EmbeddingSource {
	t.Helper()
	cfg := m.Cfg
	group := emt.NewGroup(cfg.NumTables, 50, cfg.EmbeddingDim, tensor.NewRNG(43))
	set, err := lora.NewSet(group, lora.DefaultConfig(50, cfg.EmbeddingDim))
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trainer{Model: m, Emb: set, EmbLR: 0.05}
	tr.TrainEpochs(samples, 16, 2)
	for i, a := range set.Adapters {
		if a.ActiveCount() == 0 {
			t.Fatalf("LoRA table %d has no hot rows after training", i)
		}
	}
	return map[string]EmbeddingSource{"base": &BaseEmbeddings{Group: group}, "lora": set}
}

// TestPredictBatchMatrix is the inference pass's equivalence matrix. For
// every batch size, quantization mode and embedding source:
//   - with float weights, each row's logit is the reference per-sample
//     forward's (refForward), bit for bit;
//   - each row of PredictBatch — on the pool or on a caller's scratch — of
//     PredictSamples and of EvaluateAUC's chunked scoring is the
//     batch-of-one Predict's probability, bit for bit;
//   - Predict, PredictBatch and PredictSamples allocate nothing once the
//     pool is warm.
func TestPredictBatchMatrix(t *testing.T) {
	sizes := []int{1, 2, 3, 15, 16, 17, 33, 65}
	const maxB = 65
	m, _ := newSetup(40)
	p := trace.Profiles()["criteo"]
	p.NumTables, p.TableSize, p.NumDense, p.MultiHot = 3, 50, 4, []int{1, 2, 3}
	samples := trace.MustNewGenerator(p, 42).Batch(maxB, 60)
	dense, sparse := make([][]float64, maxB), make([][][]int32, maxB)
	for i, s := range samples {
		dense[i], sparse[i] = s.Dense, s.Sparse
	}
	for name, src := range inferSources(t, m, samples) {
		for _, mode := range QuantModes() {
			if err := m.SetQuantization(mode); err != nil {
				t.Fatal(err)
			}
			one := make([]float64, maxB)
			for i := range one {
				one[i] = m.Predict(src, dense[i], sparse[i])
			}
			for _, b := range sizes {
				bs := m.newBatchScratch(b)
				logits := make([]float64, b)
				bottom, top := m.inferencers()
				m.logitsInto(src, bottom, top, dense[:b], sparse[:b], logits, bs)
				pooled, owned, bySample, chunked := make([]float64, b), make([]float64, b), make([]float64, b), make([]float64, b)
				m.PredictBatch(src, dense[:b], sparse[:b], pooled, nil)
				m.PredictBatch(src, dense[:b], sparse[:b], owned, bs)
				m.PredictSamples(src, samples[:b], bySample)
				m.sampleLogits(src, samples[:b], chunked, 16) // EvaluateAUC's chunked passes
				for i := 0; i < b; i++ {
					if mode == QuantNone {
						want, _ := refForward(m, src, dense[i], sparse[i])
						if math.Float64bits(logits[i]) != math.Float64bits(want) {
							t.Fatalf("%s/%s b=%d row %d: batched logit %v, reference %v", name, mode, b, i, logits[i], want)
						}
					}
					for _, got := range []float64{pooled[i], owned[i], bySample[i], sigmoid(logits[i]), sigmoid(chunked[i])} {
						if math.Float64bits(got) != math.Float64bits(one[i]) {
							t.Fatalf("%s/%s b=%d row %d: batched %v, Predict %v", name, mode, b, i, got, one[i])
						}
					}
				}
			}
			if raceEnabled {
				continue // allocation counts are not meaningful under the race detector
			}
			out := make([]float64, maxB)
			if a := testing.AllocsPerRun(100, func() { m.Predict(src, dense[0], sparse[0]) }); a != 0 {
				t.Errorf("%s/%s: Predict allocates %v per run, want 0", name, mode, a)
			}
			if a := testing.AllocsPerRun(100, func() { m.PredictBatch(src, dense, sparse, out, nil) }); a != 0 {
				t.Errorf("%s/%s: PredictBatch allocates %v per run, want 0", name, mode, a)
			}
			if a := testing.AllocsPerRun(100, func() { m.PredictSamples(src, samples, out) }); a != 0 {
				t.Errorf("%s/%s: PredictSamples allocates %v per run, want 0", name, mode, a)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	m.PredictBatch(&BaseEmbeddings{}, dense[:2], sparse, make([]float64, maxB), nil)
}

// TestBatchScratchAllocs: building a batch scratch costs a fixed 13
// allocations at any capacity — the BatchScratch, its float slab (dense
// rows, top inputs, features and PairDotsInto's transpose all carved from
// it) and its three view slices, and per MLP the scratch, its activation
// headers, its slab and its int8 buffer. A pooled scratch rebuilt after a GC
// pays exactly this, so a buffer the forward needs must come from a slab.
func TestBatchScratchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, name := range []string{"avazu", "criteo", "bd-tb"} {
		m, err := NewModel(ConfigForProfile(trace.Profiles()[name]), tensor.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []int{1, 16, 64} {
			if a := testing.AllocsPerRun(20, func() { m.newBatchScratch(b) }); a != 13 {
				t.Errorf("%s: newBatchScratch(%d) makes %v allocations, want 13", name, b, a)
			}
		}
	}
}
