package dlrm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"liveupdate/internal/emt"
	"liveupdate/internal/tensor"
)

// EmbeddingSource abstracts where pooled embeddings come from and where their
// gradients go. The base implementation reads/writes emt tables directly; the
// LoRA implementation (internal/lora) serves W+AB and routes gradients to the
// adapter factors while W stays frozen (paper §IV-A).
type EmbeddingSource interface {
	// NumTables returns the number of embedding tables.
	NumTables() int
	// Dim returns the embedding dimension d.
	Dim() int
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

// NumTables implements EmbeddingSource.
func (b *BaseEmbeddings) NumTables() int { return len(b.Group.Tables) }

// Dim implements EmbeddingSource.
func (b *BaseEmbeddings) Dim() int { return b.Group.Tables[0].Dim }

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

// Validate checks architectural consistency.
func (c Config) Validate() error {
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

// InteractionCount returns the number of pairwise dot-product features:
// (T+1 choose 2) over the T pooled embeddings plus the bottom-MLP output.
func (c Config) InteractionCount() int {
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

	// scratch pools ForwardScratch values for the allocation-free Predict
	// fast path. Acquire/Release cycle through it; Predict itself is safe for
	// concurrent callers because every call checks out its own scratch.
	scratch sync.Pool

	// batch pools BatchScratch values for the PredictBatch GEMM path.
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

// QuantMode returns the model's published inference weight format.
func (m *Model) QuantMode() QuantMode {
	if m.qmode == "" {
		return QuantNone
	}
	return m.qmode
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
		m.quant.Store(&quantModel{bottom: m.Bottom.Quantize(), top: m.Top.Quantize()})
	case QuantF16:
		m.quant.Store(&quantModel{bottom: m.Bottom.TruncateF16(), top: m.Top.TruncateF16()})
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
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bw := append([]int{cfg.NumDense}, cfg.BottomHidden...)
	bw = append(bw, cfg.EmbeddingDim)
	topIn := cfg.EmbeddingDim + cfg.InteractionCount()
	tw := append([]int{topIn}, cfg.TopHidden...)
	tw = append(tw, 1)
	return &Model{
		Cfg:    cfg,
		Bottom: NewMLP(rng, bw),
		Top:    NewMLP(rng, tw),
	}, nil
}

// MustNewModel panics on configuration errors; for tests and examples.
func MustNewModel(cfg Config, rng *tensor.RNG) *Model {
	m, err := NewModel(cfg, rng)
	if err != nil {
		panic(err)
	}
	return m
}

// ForwardCache retains the state of one forward pass for Backward, plus the
// reusable buffers of the training path: a cache that lives across samples
// (TrainStepWith, a Trainer's) makes Forward/Backward allocation-free after
// the first sample.
type ForwardCache struct {
	// frozen declares that this cache's forward passes will be followed by
	// the input-only backward (dense layers frozen: a Trainer with no
	// optimizer sets it). Forward then skips the per-layer input copies that
	// nothing but the weight gradients reads; Backward on such a cache panics.
	frozen bool

	bottom   MLPCache
	top      MLPCache
	features [][]float64 // f_0 = bottom output, f_1.. = pooled embeddings
	sparse   [][]int32

	featM    tensor.Matrix // (T+1)×d backing store for features, one per row
	topIn    []float64
	dLogit   [1]float64
	dZ       []float64
	dFeatBuf []float64   // backing store for dFeatures
	dFeats   [][]float64 // per-feature gradient rows, reused across Backwards
	dInterT  []float64   // one feature's interaction gradients, by partner
}

// Forward computes the click logit for one example. When cache is non-nil it
// is filled for a subsequent Backward call.
func (m *Model) Forward(src EmbeddingSource, dense []float64, sparse [][]int32, cache *ForwardCache) float64 {
	cfg := m.Cfg
	if len(dense) != cfg.NumDense {
		panic(fmt.Sprintf("dlrm: dense len %d != %d", len(dense), cfg.NumDense))
	}
	if len(sparse) != cfg.NumTables {
		panic(fmt.Sprintf("dlrm: sparse tables %d != %d", len(sparse), cfg.NumTables))
	}
	var bc *MLPCache
	if cache != nil {
		bc = &cache.bottom
		cache.bottom.frozen, cache.top.frozen = cache.frozen, cache.frozen
	}
	z := m.Bottom.Forward(dense, bc)

	d := cfg.EmbeddingDim
	var features [][]float64
	if cache != nil {
		if len(cache.features) != cfg.NumTables+1 {
			cache.features = make([][]float64, cfg.NumTables+1)
			cache.featM = *tensor.NewMatrix(cfg.NumTables+1, d)
			for t := range cache.features {
				cache.features[t] = cache.featM.Row(t)
			}
		}
		features = cache.features
		// The backward pass reads the features as one matrix, so f_0 is
		// copied in rather than aliased.
		copy(features[0], z)
	} else {
		features = make([][]float64, cfg.NumTables+1)
		for t := 0; t < cfg.NumTables; t++ {
			features[t+1] = make([]float64, d)
		}
		features[0] = z
	}
	for t := 0; t < cfg.NumTables; t++ {
		src.Lookup(t, sparse[t], features[t+1])
	}

	var topIn []float64
	if cache != nil {
		topIn = cache.topIn[:0]
	} else {
		topIn = make([]float64, 0, d+cfg.InteractionCount())
	}
	topIn = append(topIn, z...)
	for i := 0; i < len(features); i++ {
		for j := i + 1; j < len(features); j++ {
			topIn = append(topIn, tensor.Dot(features[i], features[j]))
		}
	}

	var tc *MLPCache
	if cache != nil {
		tc = &cache.top
		cache.topIn = topIn
		cache.sparse = sparse
	}
	out := m.Top.Forward(topIn, tc)
	return out[0]
}

// ForwardScratch owns every buffer one inference forward pass touches: the
// per-layer MLP activations, the gathered (pooled) embedding rows, the
// interaction-feature view, and the top-MLP input. Reusing a scratch across
// requests makes InferLogit allocation-free.
//
// Ownership rules: a scratch serves one forward pass at a time — it is NOT
// safe for concurrent use; callers either thread their own (NewScratch /
// AcquireScratch+ReleaseScratch) through a serialized serving loop, or call
// Predict, which checks a pooled scratch out per call. All result slices
// handed out during a pass alias scratch storage and are invalidated by the
// next pass.
type ForwardScratch struct {
	bottom *MLPScratch
	top    *MLPScratch

	// features[0] aliases the bottom MLP output; features[1..T] are the
	// pooled embedding gather buffers, backed by embBuf.
	features [][]float64
	embBuf   []float64
	topIn    []float64
}

// NewScratch allocates a forward scratch sized for this model. The scratch is
// tied to the model's architecture; using it with a different model panics in
// the underlying shape checks.
func (m *Model) NewScratch() *ForwardScratch {
	cfg := m.Cfg
	sc := &ForwardScratch{
		bottom:   m.Bottom.NewScratch(),
		top:      m.Top.NewScratch(),
		features: make([][]float64, cfg.NumTables+1),
		embBuf:   make([]float64, cfg.NumTables*cfg.EmbeddingDim),
		topIn:    make([]float64, 0, cfg.EmbeddingDim+cfg.InteractionCount()),
	}
	for t := 0; t < cfg.NumTables; t++ {
		sc.features[t+1] = sc.embBuf[t*cfg.EmbeddingDim : (t+1)*cfg.EmbeddingDim]
	}
	return sc
}

// AcquireScratch checks a scratch out of the model's pool (allocating one
// only when the pool is empty). Pair with ReleaseScratch.
func (m *Model) AcquireScratch() *ForwardScratch {
	if sc, ok := m.scratch.Get().(*ForwardScratch); ok {
		return sc
	}
	return m.NewScratch()
}

// ReleaseScratch returns a scratch to the pool for reuse.
func (m *Model) ReleaseScratch(sc *ForwardScratch) { m.scratch.Put(sc) }

// forwardInto is the inference-only forward pass through caller-owned
// buffers: bottom MLP (in-place ReLU), embedding gather into the scratch's
// feature rows, pairwise dot-product interactions appended into the top-input
// buffer, top MLP. It performs zero heap allocations and fills no
// backpropagation cache.
func (m *Model) forwardInto(src EmbeddingSource, dense []float64, sparse [][]int32, sc *ForwardScratch) float64 {
	cfg := m.Cfg
	if len(dense) != cfg.NumDense {
		panic(fmt.Sprintf("dlrm: dense len %d != %d", len(dense), cfg.NumDense))
	}
	if len(sparse) != cfg.NumTables {
		panic(fmt.Sprintf("dlrm: sparse tables %d != %d", len(sparse), cfg.NumTables))
	}
	bottom, top := m.inferencers()
	z := bottom.InferInto(dense, sc.bottom)
	sc.features[0] = z
	for t := 0; t < cfg.NumTables; t++ {
		src.Lookup(t, sparse[t], sc.features[t+1])
	}
	topIn := append(sc.topIn[:0], z...)
	features := sc.features
	for i := 0; i < len(features); i++ {
		for j := i + 1; j < len(features); j++ {
			topIn = append(topIn, tensor.Dot(features[i], features[j]))
		}
	}
	out := top.InferInto(topIn, sc.top)
	return out[0]
}

// Predict returns the click probability for one example. This is the serving
// fast path: it runs through a pooled ForwardScratch and performs zero heap
// allocations in steady state (verified by TestPredictZeroAlloc and gated in
// CI by BenchmarkServeRequestNoAlloc).
func (m *Model) Predict(src EmbeddingSource, dense []float64, sparse [][]int32) float64 {
	sc := m.AcquireScratch()
	p := Sigmoid(m.forwardInto(src, dense, sparse, sc))
	m.ReleaseScratch(sc)
	return p
}

// BatchScratch owns every buffer one batched inference pass touches: the
// packed dense input matrix, per-layer batch activations for both MLPs, the
// per-sample embedding gather rows, and the packed top-MLP input matrix.
// Like ForwardScratch it serves one pass at a time; Model pools them.
type BatchScratch struct {
	maxB   int
	bottom *MLPBatchScratch
	top    *MLPBatchScratch
	denseM tensor.Matrix // maxB × NumDense packed dense features
	topInM tensor.Matrix // maxB × (d + interactions) packed top inputs

	// features[0] aliases one bottom-output row per sample; features[1..T]
	// are the pooled embedding gather buffers, backed by embBuf and reused
	// across the batch's samples.
	features [][]float64
	embBuf   []float64
}

// NewBatchScratch allocates a batch scratch for up to maxB samples.
func (m *Model) NewBatchScratch(maxB int) *BatchScratch {
	if maxB < 1 {
		maxB = 1
	}
	cfg := m.Cfg
	topW := cfg.EmbeddingDim + cfg.InteractionCount()
	bs := &BatchScratch{
		maxB:     maxB,
		bottom:   m.Bottom.NewBatchScratch(maxB),
		top:      m.Top.NewBatchScratch(maxB),
		denseM:   tensor.Matrix{Rows: maxB, Cols: cfg.NumDense, Data: make([]float64, maxB*cfg.NumDense)},
		topInM:   tensor.Matrix{Rows: maxB, Cols: topW, Data: make([]float64, maxB*topW)},
		features: make([][]float64, cfg.NumTables+1),
		embBuf:   make([]float64, cfg.NumTables*cfg.EmbeddingDim),
	}
	for t := 0; t < cfg.NumTables; t++ {
		bs.features[t+1] = bs.embBuf[t*cfg.EmbeddingDim : (t+1)*cfg.EmbeddingDim]
	}
	return bs
}

// AcquireBatchScratch checks a batch scratch with capacity ≥ b out of the
// model's pool, allocating (with capacity rounded up to a power of two) when
// the pool is empty or its scratch is too small. Pair with
// ReleaseBatchScratch.
func (m *Model) AcquireBatchScratch(b int) *BatchScratch {
	if bs, ok := m.batch.Get().(*BatchScratch); ok && bs.maxB >= b {
		return bs
	}
	capB := 16
	for capB < b {
		capB *= 2
	}
	return m.NewBatchScratch(capB)
}

// ReleaseBatchScratch returns a batch scratch to the pool for reuse.
func (m *Model) ReleaseBatchScratch(bs *BatchScratch) { m.batch.Put(bs) }

// PredictBatch scores len(out) examples, writing click probabilities into
// out. dense, sparse, and out must have equal lengths.
//
// With sc == nil (the fast path) the batch runs through a pooled
// BatchScratch: the dense rows are packed into one matrix and each MLP runs
// one GEMM over the whole batch instead of a matvec per sample. The GEMM
// accumulates in the same order as the per-sample kernels, so results are
// bit-identical to calling Predict in a loop (TestPredictBatch). Passing a
// caller-owned ForwardScratch keeps the legacy per-sample loop.
func (m *Model) PredictBatch(src EmbeddingSource, dense [][]float64, sparse [][][]int32, out []float64, sc *ForwardScratch) {
	if len(dense) != len(out) || len(sparse) != len(out) {
		panic(fmt.Sprintf("dlrm: PredictBatch lengths dense=%d sparse=%d out=%d",
			len(dense), len(sparse), len(out)))
	}
	if sc != nil {
		for i := range out {
			out[i] = Sigmoid(m.forwardInto(src, dense[i], sparse[i], sc))
		}
		return
	}
	if len(out) == 0 {
		return
	}
	bs := m.AcquireBatchScratch(len(out))
	m.predictBatchInto(src, dense, sparse, out, bs)
	m.ReleaseBatchScratch(bs)
}

// predictBatchInto is the batched inference pass through a caller-owned
// batch scratch: pack dense rows → one bottom GEMM → per-sample embedding
// gather + interactions packed into the top-input matrix → one top GEMM.
// Zero heap allocations.
func (m *Model) predictBatchInto(src EmbeddingSource, dense [][]float64, sparse [][][]int32, out []float64, bs *BatchScratch) {
	cfg := m.Cfg
	b := len(out)
	bottom, top := m.inferencers()

	bs.denseM.Rows = b
	for i, dv := range dense {
		if len(dv) != cfg.NumDense {
			panic(fmt.Sprintf("dlrm: dense len %d != %d", len(dv), cfg.NumDense))
		}
		copy(bs.denseM.Row(i), dv)
	}
	z := bottom.InferBatchInto(&bs.denseM, bs.bottom)

	bs.topInM.Rows = b
	features := bs.features
	for i := 0; i < b; i++ {
		if len(sparse[i]) != cfg.NumTables {
			panic(fmt.Sprintf("dlrm: sparse tables %d != %d", len(sparse[i]), cfg.NumTables))
		}
		features[0] = z.Row(i)
		for t := 0; t < cfg.NumTables; t++ {
			src.Lookup(t, sparse[i][t], features[t+1])
		}
		row := append(bs.topInM.Row(i)[:0], features[0]...)
		for a := 0; a < len(features); a++ {
			for c := a + 1; c < len(features); c++ {
				row = append(row, tensor.Dot(features[a], features[c]))
			}
		}
	}
	logits := top.InferBatchInto(&bs.topInM, bs.top)
	for i := range out {
		out[i] = Sigmoid(logits.Row(i)[0])
	}
}

// Backward backpropagates dLogit through the model, accumulating dense-layer
// gradients and returning the gradient w.r.t. each table's pooled embedding.
// The returned rows alias the cache's scratch and are valid until its next
// Backward.
func (m *Model) Backward(dLogit float64, cache *ForwardCache) [][]float64 {
	return m.backward(dLogit, cache, false)
}

// backward is Backward; frozen selects the dense-frozen form — the
// co-located LoRA trainer's case (paper Fig 7: only A and B receive
// gradients). It returns bit-identical embedding gradients while skipping
// every weight gradient: no outer products in the top MLP, no bottom-MLP pass
// at all (nothing upstream of it is trainable), and so nothing to ZeroGrad
// after.
func (m *Model) backward(dLogit float64, cache *ForwardCache, frozen bool) [][]float64 {
	cfg := m.Cfg
	cache.dLogit[0] = dLogit
	var dTopIn []float64
	if frozen {
		dTopIn = m.Top.backwardInput(cache.dLogit[:], &cache.top)
	} else {
		dTopIn = m.Top.Backward(cache.dLogit[:], &cache.top)
	}
	dInter := dTopIn[cfg.EmbeddingDim:]

	n := len(cache.features)
	if len(cache.dFeats) != n {
		cache.dFeats = make([][]float64, n)
		cache.dFeatBuf = make([]float64, n*cfg.EmbeddingDim)
		for i := range cache.dFeats {
			cache.dFeats[i] = cache.dFeatBuf[i*cfg.EmbeddingDim : (i+1)*cfg.EmbeddingDim]
		}
		cache.dInterT = make([]float64, n)
	}
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
		tensor.AxpyRows(dFeatures[t], 1, gt, &cache.featM)
	}
	if !frozen {
		// f_0 is the bottom output: its gradient combines the direct
		// top-input path and the interaction path.
		cache.dZ = growFloats(cache.dZ, cfg.EmbeddingDim)
		dZ := cache.dZ
		for i := range dZ {
			dZ[i] = dTopIn[i] + dFeatures[0][i]
		}
		m.Bottom.backwardParams(dZ, &cache.bottom) // the dense input has no gradient to take
	}
	return dFeatures[1:]
}

// TrainStepWith performs one SGD step on a single example through a
// caller-owned forward cache: dense gradients are accumulated (call opt.Step
// to apply) and embedding gradients are applied immediately through src at
// rate embLR. It returns the example's BCE loss. Reusing one cache across a
// mini-batch amortizes the per-sample cache allocations (Forward overwrites
// every field it reads, so reuse is safe).
func (m *Model) TrainStepWith(src EmbeddingSource, dense []float64, sparse [][]int32, label int, embLR float64, cache *ForwardCache) float64 {
	return m.trainStep(src, dense, sparse, label, embLR, cache, false)
}

// trainStep is TrainStepWith; frozen selects the input-only backward, which
// applies the same embedding gradients and accumulates no dense ones.
func (m *Model) trainStep(src EmbeddingSource, dense []float64, sparse [][]int32, label int, embLR float64, cache *ForwardCache, frozen bool) float64 {
	logit := m.Forward(src, dense, sparse, cache)
	loss := BCELossWithLogit(logit, label)
	dLogit := Sigmoid(logit) - float64(label)
	dEmb := m.backward(dLogit, cache, frozen)
	for t, g := range dEmb {
		src.ApplyGrad(t, sparse[t], g, embLR)
	}
	return loss
}

// InferLogit is Predict's pass through a caller-owned scratch, returning the
// raw logit — allocation-free and without the sigmoid, for callers that rank
// by score (AUC evaluation) or apply their own link function.
func (m *Model) InferLogit(src EmbeddingSource, dense []float64, sparse [][]int32, sc *ForwardScratch) float64 {
	return m.forwardInto(src, dense, sparse, sc)
}

// Clone deep-copies the dense parameters, preserving the quantization mode
// (the clone gets its own published snapshot).
func (m *Model) Clone() *Model {
	c := &Model{Cfg: m.Cfg, Bottom: m.Bottom.Clone(), Top: m.Top.Clone(), qmode: m.qmode}
	c.refreshQuant()
	return c
}

// CopyWeightsFrom overwrites dense parameters from src and republishes the
// quantized snapshot so served predictions pick up the new weights.
func (m *Model) CopyWeightsFrom(src *Model) {
	m.Bottom.CopyWeightsFrom(src.Bottom)
	m.Top.CopyWeightsFrom(src.Top)
	m.refreshQuant()
}

// DenseParamCount returns the number of dense trainable scalars.
func (m *Model) DenseParamCount() int {
	return m.Bottom.ParamCount() + m.Top.ParamCount()
}
