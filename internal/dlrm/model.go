package dlrm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"liveupdate/internal/emt"
	"liveupdate/internal/tensor"
	"liveupdate/internal/trace"
)

// EmbeddingSource abstracts where pooled embeddings come from and where their
// gradients go. The base implementation reads/writes emt tables directly; the
// LoRA implementation (internal/lora) serves W+AB and routes gradients to the
// adapter factors while W stays frozen (paper §IV-A).
type EmbeddingSource interface {
	// Lookup mean-pools the embeddings of ids from the given table into dst.
	Lookup(table int, ids []int32, dst []float64)
	// ApplyGrad consumes the gradient w.r.t. the pooled embedding of the
	// given table, performing one SGD step at rate lr on whatever parameters
	// the source trains.
	ApplyGrad(table int, ids []int32, grad []float64, lr float64)
}

// BaseEmbeddings adapts an emt.Group to the EmbeddingSource interface with
// direct row-wise SGD updates (the conventional training path).
type BaseEmbeddings struct {
	Group *emt.Group

	// delta is ApplyGrad's scaled-gradient scratch, reused across calls so a
	// training tick performs no per-sample allocation. ApplyGrad is owner-only
	// (serialized with the training loop), so one buffer suffices.
	delta []float64
}

// Lookup implements EmbeddingSource.
func (b *BaseEmbeddings) Lookup(table int, ids []int32, dst []float64) {
	b.Group.Tables[table].Lookup(ids, dst)
}

// ApplyGrad implements EmbeddingSource: the pooled gradient is scattered
// back to each contributing row scaled by 1/len(ids) (mean-pool Jacobian).
// The scatter is a single SPMM-style ScatterAdd touching only the
// mini-batch's rows — one version bump per call instead of one per row.
func (b *BaseEmbeddings) ApplyGrad(table int, ids []int32, grad []float64, lr float64) {
	if len(ids) == 0 {
		return
	}
	t := b.Group.Tables[table]
	scale := -lr / float64(len(ids))
	if cap(b.delta) < len(grad) {
		b.delta = make([]float64, len(grad))
	}
	delta := b.delta[:len(grad)]
	for i, g := range grad {
		delta[i] = scale * g
	}
	t.ScatterAdd(ids, delta)
}

// Config describes a DLRM architecture.
type Config struct {
	NumTables    int
	EmbeddingDim int
	NumDense     int
	BottomHidden []int // hidden widths of the bottom MLP
	TopHidden    []int // hidden widths of the top MLP
}

// validate checks architectural consistency.
func (c Config) validate() error {
	switch {
	case c.NumTables <= 0:
		return fmt.Errorf("dlrm: NumTables must be positive")
	case c.EmbeddingDim <= 0:
		return fmt.Errorf("dlrm: EmbeddingDim must be positive")
	case c.NumDense <= 0:
		return fmt.Errorf("dlrm: NumDense must be positive")
	}
	return nil
}

// interactionCount returns the number of pairwise dot-product features:
// (T+1 choose 2) over the T pooled embeddings plus the bottom-MLP output.
func (c Config) interactionCount() int {
	n := c.NumTables + 1
	return n * (n - 1) / 2
}

// Model is the dense half of a DLRM: bottom MLP, dot-product interaction,
// top MLP. Embedding parameters live behind an EmbeddingSource so that base
// training and LoRA adaptation share one forward/backward implementation.
type Model struct {
	Cfg    Config
	Bottom *MLP
	Top    *MLP

	// batch pools BatchScratch values for inference. Predict and
	// PredictBatch are safe for concurrent callers because every call checks
	// out its own scratch.
	batch sync.Pool

	// qmode selects the published inference weight format; quant holds the
	// current read-only snapshot (nil when qmode is QuantNone). The snapshot
	// is rebuilt wherever the dense weights change wholesale (SetQuantization,
	// CopyWeightsFrom) — training never mutates it in place, so readers load
	// the pointer once per forward pass and need no lock.
	qmode QuantMode
	quant atomic.Pointer[quantModel]
}

// quantModel is one published snapshot of both MLPs in the active format.
type quantModel struct {
	bottom inferencer
	top    inferencer
}

// SetQuantization switches the published inference weight format and, for
// int8/f16, builds the snapshot. Callers must hold whatever lock serializes
// weight mutation (core holds paramMu); concurrent Predicts see either the
// old or the new snapshot atomically. Training is unaffected: gradients
// always flow through the float64 weights.
func (m *Model) SetQuantization(mode QuantMode) error {
	q, err := ParseQuantMode(string(mode))
	if err != nil {
		return err
	}
	m.qmode = q
	m.refreshQuant()
	return nil
}

// refreshQuant rebuilds the published snapshot from the current float64
// weights. Called under the weight-mutation lock.
func (m *Model) refreshQuant() {
	switch m.qmode {
	case QuantInt8:
		m.quant.Store(&quantModel{bottom: m.Bottom.quantize(), top: m.Top.quantize()})
	case QuantF16:
		m.quant.Store(&quantModel{bottom: m.Bottom.truncateF16(), top: m.Top.truncateF16()})
	default:
		m.quant.Store(nil)
	}
}

// inferencers returns the published (bottom, top) inference snapshot — the
// quantized one when active, the float64 MLPs otherwise.
func (m *Model) inferencers() (inferencer, inferencer) {
	if qm := m.quant.Load(); qm != nil {
		return qm.bottom, qm.top
	}
	return m.Bottom, m.Top
}

// NewModel builds a model for cfg with Xavier initialization from rng.
func NewModel(cfg Config, rng *tensor.RNG) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	bw := append([]int{cfg.NumDense}, cfg.BottomHidden...)
	bw = append(bw, cfg.EmbeddingDim)
	topIn := cfg.EmbeddingDim + cfg.interactionCount()
	tw := append([]int{topIn}, cfg.TopHidden...)
	tw = append(tw, 1)
	return &Model{
		Cfg:    cfg,
		Bottom: newMLP(rng, bw),
		Top:    newMLP(rng, tw),
	}, nil
}

// ForwardCache is one training step's scratch: a one-sample BatchScratch
// that the forward pass fills and the backward pass reads (the packed
// inputs, every layer's activations and the feature matrix), plus the
// backward's gradient buffers. The zero value is ready: the first step
// builds the buffers for its model, and later steps reuse them, so a cache
// kept across samples (TrainStepWith, a Trainer's) trains allocation-free.
// A cache serves one model architecture.
type ForwardCache struct {
	bs *BatchScratch

	bottomG, topG []layerGrad
	dLogit        [1]float64
	dZ            []float64
	dFeatBuf      []float64   // backing store for dFeats
	dFeats        [][]float64 // per-feature gradient rows
	dInterT       []float64   // one feature's interaction gradients, by partner
}

// forward is the training forward: the batched pass on one sample through
// the cache's scratch, which keeps every activation backward reads. It
// always runs the float64 MLPs, never the published snapshot, so a
// quantized model trains in float64.
func (m *Model) forward(src EmbeddingSource, dense []float64, sparse [][]int32, c *ForwardCache) float64 {
	if c.bs == nil {
		n, d := m.Cfg.NumTables+1, m.Cfg.EmbeddingDim
		c.bs = m.newBatchScratch(1)
		c.bottomG, c.topG = m.Bottom.newGrads(), m.Top.newGrads()
		c.dZ = make([]float64, d)
		c.dFeatBuf = make([]float64, n*d)
		c.dFeats = make([][]float64, n)
		for i := range c.dFeats {
			c.dFeats[i] = c.dFeatBuf[i*d : (i+1)*d]
		}
		c.dInterT = make([]float64, n)
	}
	bs := c.bs
	bs.dense[0], bs.sparse[0] = dense, sparse
	var logit [1]float64
	m.logitsInto(src, m.Bottom, m.Top, bs.dense[:1], bs.sparse[:1], logit[:], bs)
	return logit[0]
}

// Predict returns the click probability for one example: a batch of one
// through the forward pass on a pooled BatchScratch. It performs zero heap
// allocations in steady state (TestPredictBatchMatrix; gated in CI by
// BenchmarkServeRequestNoAlloc).
func (m *Model) Predict(src EmbeddingSource, dense []float64, sparse [][]int32) float64 {
	sample := [1]trace.Sample{{Dense: dense, Sparse: sparse}}
	var logit [1]float64
	m.sampleLogits(src, sample[:], logit[:], 1)
	return sigmoid(logit[0])
}

// BatchScratch owns every buffer one forward pass touches: the packed
// dense input matrix, per-layer batch activations for both MLPs, the
// feature matrix, the packed top-MLP input matrix, and view arrays for
// callers that score samples by reference. A scratch serves one pass at a
// time and is not safe for concurrent use; results alias its storage until
// its next pass. Model pools them for inference; a ForwardCache owns one
// for training.
type BatchScratch struct {
	maxB   int
	bottom *mlpBatchScratch
	top    *mlpBatchScratch
	denseM tensor.Matrix // maxB × NumDense packed dense features
	topInM tensor.Matrix // maxB × (d + interactions) packed top inputs

	// featM holds one sample's features, one per row and reused across the
	// batch's samples: row 0 a copy of its bottom output, rows 1..T its
	// pooled embeddings. After a one-sample pass it is the matrix the
	// backward's interaction step reads. features are its rows.
	featM    tensor.Matrix
	features [][]float64

	// pairT is tensor.PairDotsInto's scratch, the features' transpose.
	pairT []float64

	// dense and sparse are maxB-long views onto the caller's samples (no
	// feature data is copied), filled by sampleLogits.
	dense  [][]float64
	sparse [][][]int32
}

// newBatchScratch allocates a batch scratch for up to maxB samples.
func (m *Model) newBatchScratch(maxB int) *BatchScratch {
	maxB = max(maxB, 1)
	cfg := m.Cfg
	d, topW := cfg.EmbeddingDim, cfg.EmbeddingDim+cfg.interactionCount()
	n := cfg.NumTables + 1
	slab := make([]float64, maxB*(cfg.NumDense+topW)+n*d+d*(n+3))
	bs := &BatchScratch{
		maxB:     maxB,
		bottom:   m.Bottom.newBatchScratch(maxB),
		top:      m.Top.newBatchScratch(maxB),
		denseM:   tensor.Matrix{Rows: maxB, Cols: cfg.NumDense, Data: carve(&slab, maxB*cfg.NumDense)},
		topInM:   tensor.Matrix{Rows: maxB, Cols: topW, Data: carve(&slab, maxB*topW)},
		featM:    tensor.Matrix{Rows: n, Cols: d, Data: carve(&slab, n*d)},
		pairT:    carve(&slab, d*(n+3)), // PairDotsInto's minimum
		features: make([][]float64, n),
		dense:    make([][]float64, maxB),
		sparse:   make([][][]int32, maxB),
	}
	for t := range bs.features {
		bs.features[t] = bs.featM.Row(t)
	}
	return bs
}

// acquireBatchScratch checks a batch scratch with capacity ≥ b out of the
// model's pool, allocating (with capacity rounded up to a power of two, at
// least 16) when the pool is empty or its scratch is too small. Callers put
// it back with m.batch.Put, with its sample views cleared.
func (m *Model) acquireBatchScratch(b int) *BatchScratch {
	if bs, ok := m.batch.Get().(*BatchScratch); ok && bs.maxB >= b {
		return bs
	}
	capB := 16
	for capB < b {
		capB *= 2
	}
	return m.newBatchScratch(capB)
}

// PredictBatch scores len(out) examples, writing click probabilities into
// out. dense, sparse, and out must have equal lengths. The batch runs
// through bs — a caller-owned scratch of capacity ≥ len(out) — or, when bs
// is nil, a pooled one: each MLP runs the whole batch layer by layer, and
// the results are bit-identical to calling Predict in a loop.
func (m *Model) PredictBatch(src EmbeddingSource, dense [][]float64, sparse [][][]int32, out []float64, bs *BatchScratch) {
	if len(dense) != len(out) || len(sparse) != len(out) {
		panic(fmt.Sprintf("dlrm: PredictBatch lengths dense=%d sparse=%d out=%d",
			len(dense), len(sparse), len(out)))
	}
	if len(out) == 0 {
		return
	}
	if bs == nil {
		bs = m.acquireBatchScratch(len(out))
		defer m.batch.Put(bs)
	}
	bottom, top := m.inferencers()
	m.logitsInto(src, bottom, top, dense, sparse, out, bs)
	for i, l := range out {
		out[i] = sigmoid(l)
	}
}

// PredictSamples is PredictBatch over samples by reference: it writes their
// click probabilities into out (len(out) == len(samples)) through one pooled
// scratch, bit-identical to Predict per sample.
func (m *Model) PredictSamples(src EmbeddingSource, samples []trace.Sample, out []float64) {
	if len(out) != len(samples) {
		panic(fmt.Sprintf("dlrm: PredictSamples out len %d != samples len %d", len(out), len(samples)))
	}
	m.sampleLogits(src, samples, out, len(samples))
	for i, l := range out {
		out[i] = sigmoid(l)
	}
}

// sampleLogits scores samples into out as raw logits, in passes of at most
// chunk samples through the scratch's view arrays on one pooled scratch.
func (m *Model) sampleLogits(src EmbeddingSource, samples []trace.Sample, out []float64, chunk int) {
	if len(samples) == 0 {
		return
	}
	chunk = min(chunk, len(samples))
	bs := m.acquireBatchScratch(chunk)
	bottom, top := m.inferencers()
	for lo := 0; lo < len(samples); lo += chunk {
		part := samples[lo:min(lo+chunk, len(samples))]
		for i, s := range part {
			bs.dense[i], bs.sparse[i] = s.Dense, s.Sparse
		}
		n := len(part)
		m.logitsInto(src, bottom, top, bs.dense[:n], bs.sparse[:n], out[lo:lo+n], bs)
	}
	clear(bs.dense[:chunk]) // the pool pins no caller data
	clear(bs.sparse[:chunk])
	m.batch.Put(bs)
}

// logitsInto is the one forward: it scores len(out) ≤ bs.maxB examples
// into out as raw logits — pack dense rows → the bottom MLP's batched pass
// → per-sample embedding gather + pairwise feature dots (PairDotsInto)
// packed into the top-input matrix → the top MLP's batched pass — through
// the given MLPs: the published (float or quantized) snapshot for
// inference, the float64 MLPs for training. Zero heap allocations.
func (m *Model) logitsInto(src EmbeddingSource, bottom, top inferencer, dense [][]float64, sparse [][][]int32, out []float64, bs *BatchScratch) {
	cfg := m.Cfg
	b := len(out)

	bs.denseM.Rows = b
	for i, dv := range dense {
		if len(dv) != cfg.NumDense {
			panic(fmt.Sprintf("dlrm: dense len %d != %d", len(dv), cfg.NumDense))
		}
		copy(bs.denseM.Row(i), dv)
	}
	z := bottom.inferBatchInto(&bs.denseM, bs.bottom)

	bs.topInM.Rows = b
	features := bs.features
	for i := 0; i < b; i++ {
		if len(sparse[i]) != cfg.NumTables {
			panic(fmt.Sprintf("dlrm: sparse tables %d != %d", len(sparse[i]), cfg.NumTables))
		}
		zi := z.Row(i)
		copy(features[0], zi)
		for t := 0; t < cfg.NumTables; t++ {
			src.Lookup(t, sparse[i][t], features[t+1])
		}
		topIn := bs.topInM.Row(i)
		copy(topIn, zi)
		tensor.PairDotsInto(topIn[len(zi):], &bs.featM, bs.pairT)
	}
	logits := top.inferBatchInto(&bs.topInM, bs.top)
	for i := range out {
		out[i] = logits.Row(i)[0]
	}
}

// backward backpropagates dLogit through the forward pass the cache last
// ran, accumulating dense-layer gradients and returning the gradient w.r.t.
// each table's pooled embedding. The returned rows alias the cache's
// scratch and are valid until its next backward. frozen selects the
// dense-frozen form — the
// co-located LoRA trainer's case (paper Fig 7: only A and B receive
// gradients). It returns bit-identical embedding gradients while skipping
// every weight gradient: no outer products in the top MLP, no bottom-MLP pass
// at all (nothing upstream of it is trainable), and so nothing to zeroGrad
// after.
func (m *Model) backward(dLogit float64, cache *ForwardCache, frozen bool) [][]float64 {
	bs := cache.bs
	cache.dLogit[0] = dLogit
	dTopIn := m.Top.backward(cache.dLogit[:], bs.topInM.Row(0), bs.top, cache.topG, !frozen, true)
	dInter := dTopIn[m.Cfg.EmbeddingDim:]

	n := len(bs.features)
	dFeatures := cache.dFeats
	clear(cache.dFeatBuf)
	// Feature t's gradient is Σ_{p≠t} g_tp·f_p, where g_tp is the gradient of
	// the interaction ⟨f_min(t,p), f_max(t,p)⟩ (pairs are laid out row by row
	// of the upper triangle). Summed over ascending p, these are the terms in
	// the order a walk over the pairs would add them, so the result is the
	// same bit for bit; a frozen stack reads no gradient for f_0.
	first := 0
	if frozen {
		first = 1
	}
	gt := cache.dInterT
	for t := first; t < n; t++ {
		base := 0 // start of row p of the pair triangle
		for p := 0; p < t; p++ {
			gt[p] = dInter[base+t-p-1]
			base += n - p - 1
		}
		gt[t] = 0
		for p := t + 1; p < n; p++ {
			gt[p] = dInter[base+p-t-1]
		}
		tensor.AxpyRows(dFeatures[t], 1, gt, &bs.featM)
	}
	if !frozen {
		// f_0 is the bottom output: its gradient combines the direct
		// top-input path and the interaction path.
		dZ := cache.dZ
		for i := range dZ {
			dZ[i] = dTopIn[i] + dFeatures[0][i]
		}
		// The dense input has no gradient to take.
		m.Bottom.backward(dZ, bs.denseM.Row(0), bs.bottom, cache.bottomG, true, false)
	}
	return dFeatures[1:]
}

// TrainStepWith performs one SGD step on a single example through a
// caller-owned forward cache: dense gradients are accumulated (call opt.Step
// to apply) and embedding gradients are applied immediately through src at
// rate embLR. It returns the example's BCE loss. Reusing one cache across a
// mini-batch makes every step after the first allocation-free (the forward
// overwrites every buffer the backward reads, so reuse is safe).
func (m *Model) TrainStepWith(src EmbeddingSource, dense []float64, sparse [][]int32, label int, embLR float64, cache *ForwardCache) float64 {
	return m.trainStep(src, dense, sparse, label, embLR, cache, false)
}

// trainStep is TrainStepWith; frozen selects the input-only backward, which
// applies the same embedding gradients and accumulates no dense ones.
func (m *Model) trainStep(src EmbeddingSource, dense []float64, sparse [][]int32, label int, embLR float64, cache *ForwardCache, frozen bool) float64 {
	logit := m.forward(src, dense, sparse, cache)
	loss := bCELossWithLogit(logit, label)
	dLogit := sigmoid(logit) - float64(label)
	dEmb := m.backward(dLogit, cache, frozen)
	for t, g := range dEmb {
		src.ApplyGrad(t, sparse[t], g, embLR)
	}
	return loss
}

// Clone deep-copies the dense parameters, preserving the quantization mode
// (the clone gets its own published snapshot).
func (m *Model) Clone() *Model {
	c := &Model{Cfg: m.Cfg, Bottom: m.Bottom.clone(), Top: m.Top.clone(), qmode: m.qmode}
	c.refreshQuant()
	return c
}

// CopyWeightsFrom overwrites dense parameters from src and republishes the
// quantized snapshot so served predictions pick up the new weights.
func (m *Model) CopyWeightsFrom(src *Model) {
	m.Bottom.copyWeightsFrom(src.Bottom)
	m.Top.copyWeightsFrom(src.Top)
	m.refreshQuant()
}

// DenseParamCount returns the number of dense trainable scalars.
func (m *Model) DenseParamCount() int {
	return m.Bottom.paramCount() + m.Top.paramCount()
}
