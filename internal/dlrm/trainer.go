package dlrm

import (
	"liveupdate/internal/metrics"
	"liveupdate/internal/trace"
)

// Trainer couples a Model, an EmbeddingSource, and an optimizer into the
// mini-batch training loop of paper §II-A. A nil Opt freezes the dense
// layers: only embedding gradients are computed and applied (the paper's
// online path trains nothing but the low-rank embedding factors). That is the
// one frozen-dense LoRA step: the co-located train tick, the harness's
// LiveUpdate arm and fig9's replicas all run it.
//
// A Trainer keeps its forward/backward buffers across batches, so a
// long-lived one trains allocation-free after its first sample; it serves
// one TrainBatch at a time.
type Trainer struct {
	Model *Model
	Emb   EmbeddingSource
	Opt   Optimizer
	EmbLR float64

	cache ForwardCache
}

// TrainBatch runs one mini-batch (forward + backward per sample, one dense
// optimizer step at the end unless the dense layers are frozen) and returns
// the mean BCE loss.
func (tr *Trainer) TrainBatch(batch []trace.Sample) float64 {
	if len(batch) == 0 {
		return 0
	}
	total := 0.0
	frozen := tr.Opt == nil
	for _, s := range batch {
		total += tr.Model.trainStep(tr.Emb, s.Dense, s.Sparse, s.Label, tr.EmbLR, &tr.cache, frozen)
	}
	if !frozen {
		tr.Opt.Step(tr.Model.Bottom, len(batch))
		tr.Opt.Step(tr.Model.Top, len(batch))
		tr.Model.Bottom.repack()
		tr.Model.Top.repack()
	}
	return total / float64(len(batch))
}

// TrainEpochs runs the samples in fixed-size mini-batches for the given
// number of passes and returns the final mean batch loss.
func (tr *Trainer) TrainEpochs(samples []trace.Sample, batchSize, epochs int) float64 {
	if batchSize <= 0 {
		batchSize = 32
	}
	last := 0.0
	for e := 0; e < epochs; e++ {
		for i := 0; i < len(samples); i += batchSize {
			end := i + batchSize
			if end > len(samples) {
				end = len(samples)
			}
			last = tr.TrainBatch(samples[i:end])
		}
	}
	return last
}

// evalChunk is how many samples EvaluateAUC scores per forward pass.
const evalChunk = 64

// EvaluateAUC scores samples with the model and returns the AUC-ROC. Scoring
// runs the forward pass in chunks on one pooled scratch and ranks raw
// logits: the ranking is sigmoid-invariant, while saturated probabilities
// would tie.
func EvaluateAUC(m *Model, src EmbeddingSource, samples []trace.Sample) float64 {
	scores := make([]float64, len(samples))
	labels := make([]int, len(samples))
	m.sampleLogits(src, samples, scores, evalChunk)
	for i, s := range samples {
		labels[i] = s.Label
	}
	return metrics.AUC(scores, labels)
}

// ConfigForProfile derives a standard DLRM architecture from a trace profile:
// bottom MLP NumDense→64→d, top MLP →64→32→1.
func ConfigForProfile(p trace.Profile) Config {
	return Config{
		NumTables:    p.NumTables,
		EmbeddingDim: p.EmbeddingDim,
		NumDense:     p.NumDense,
		BottomHidden: []int{64},
		TopHidden:    []int{64, 32},
	}
}
