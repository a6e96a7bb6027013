// Package dlrm implements the Deep Learning Recommendation Model of paper
// §II-A from scratch: bottom/top MLPs, dot-product feature interaction,
// embedding pooling via internal/emt, binary cross-entropy loss, and SGD /
// Adagrad optimizers. It substitutes for TorchRec+FBGEMM on H100s; the
// architecture (Fig 1) is the same, the scale is laptop-sized.
package dlrm

import (
	"fmt"
	"math"

	"liveupdate/internal/tensor"
)

// Layer is one fully connected layer y = act(Wx + b).
type Layer struct {
	W    *tensor.Matrix // out×in
	B    []float64      // out
	ReLU bool           // apply ReLU; false = linear output layer

	// Gradient accumulators, applied by the optimizer per batch.
	gradW *tensor.Matrix
	gradB []float64

	// Adagrad accumulators (lazily allocated).
	accW *tensor.Matrix
	accB []float64
}

// NewLayer builds an in→out layer with Xavier-initialized weights.
func NewLayer(rng *tensor.RNG, in, out int, relu bool) *Layer {
	return &Layer{
		W:     tensor.XavierMatrix(rng, out, in),
		B:     make([]float64, out),
		ReLU:  relu,
		gradW: tensor.NewMatrix(out, in),
		gradB: make([]float64, out),
	}
}

// Forward computes the layer output and, when cache is non-nil, stores the
// input and pre-activation needed for Backward. The input is copied into the
// cache (reusing its buffer), so callers may overwrite x — e.g. a batched
// serving loop reusing one scratch buffer — between Forward and Backward
// without corrupting backpropagation.
func (l *Layer) Forward(x []float64, cache *LayerCache) []float64 {
	return l.forward(x, cache, true)
}

// forward is Forward with the input copy optional: only the weight gradient
// reads it, so a frozen stack (MLPCache.frozen) forwards without.
func (l *Layer) forward(x []float64, cache *LayerCache, keepInput bool) []float64 {
	var pre []float64
	if cache != nil {
		cache.Pre = growFloats(cache.Pre, l.Out())
		pre = cache.Pre
	} else {
		pre = make([]float64, l.Out())
	}
	tensor.MatVecInto(pre, l.W, x)
	for i := range pre {
		pre[i] += l.B[i]
	}
	out := pre
	if l.ReLU {
		if cache != nil {
			cache.out = growFloats(cache.out, l.Out())
			out = cache.out
		} else {
			out = make([]float64, len(pre))
		}
		tensor.ReLUInto(out, pre)
	}
	if cache != nil && keepInput {
		cache.Input = append(cache.Input[:0], x...)
	}
	return out
}

// growFloats returns buf resized to n, reusing its backing array when the
// capacity allows. Contents are unspecified; callers overwrite fully.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// LayerCache holds per-sample forward state for backpropagation, plus the
// layer's reusable forward/backward buffers: a cache that lives across train
// ticks makes Forward and Backward allocation-free after the first batch.
// Input is an owned copy of the forward input (never an alias of the caller's
// buffer).
type LayerCache struct {
	Input []float64
	Pre   []float64

	out  []float64 // post-ReLU output (aliased by Forward's return value)
	dPre []float64 // backward scratch: gradient w.r.t. pre-activation
	dIn  []float64 // backward scratch: gradient w.r.t. input (returned)
}

// Backward accumulates gradients for dOut (gradient w.r.t. the layer output)
// and returns the gradient w.r.t. the layer input. The returned slice aliases
// the cache's scratch and is valid until the cache's next Backward.
func (l *Layer) Backward(dOut []float64, cache *LayerCache) []float64 {
	dPre := l.preGrad(dOut, cache)
	l.accumulate(dPre, cache.Input)
	return l.inputGrad(dPre, cache)
}

// backwardInput is Backward for a frozen layer: it returns the same gradient
// w.r.t. the layer input, bit for bit, and leaves the weight and bias
// gradient accumulators untouched.
func (l *Layer) backwardInput(dOut []float64, cache *LayerCache) []float64 {
	return l.inputGrad(l.preGrad(dOut, cache), cache)
}

// preGrad returns the gradient w.r.t. the pre-activation: dOut masked by the
// ReLU (in the cache's scratch), or dOut itself for a linear layer.
func (l *Layer) preGrad(dOut []float64, cache *LayerCache) []float64 {
	if !l.ReLU {
		return dOut
	}
	cache.dPre = growFloats(cache.dPre, len(dOut))
	tensor.ReLUMaskInto(cache.dPre, dOut, cache.Pre)
	return cache.dPre
}

// accumulate adds the parameter half of the backward pass — the outer
// product dPre·inᵀ and dPre itself — to the layer's gradient accumulators.
func (l *Layer) accumulate(dPre, in []float64) {
	for o, dp := range dPre {
		if dp == 0 {
			continue
		}
		row := l.gradW.Row(o)
		for i, xi := range in {
			row[i] += dp * xi
		}
		l.gradB[o] += dp
	}
}

// inputGrad returns the input half of the backward pass, Wᵀ·dPre, in the
// cache's scratch: the rows of W whose output the ReLU let through, summed
// in row order.
func (l *Layer) inputGrad(dPre []float64, cache *LayerCache) []float64 {
	cache.dIn = growFloats(cache.dIn, l.In())
	clear(cache.dIn)
	tensor.AxpyRows(cache.dIn, 1, dPre, l.W)
	return cache.dIn
}

// In returns the input width, Out the output width.
func (l *Layer) In() int  { return l.W.Cols }
func (l *Layer) Out() int { return l.W.Rows }

// zeroGrad clears accumulated gradients.
func (l *Layer) zeroGrad() {
	l.gradW.Zero()
	for i := range l.gradB {
		l.gradB[i] = 0
	}
}

// MLP is a stack of fully connected layers.
type MLP struct {
	Layers []*Layer
}

// NewMLP builds an MLP with the given widths; widths[0] is the input size.
// All hidden layers use ReLU; the final layer is linear.
func NewMLP(rng *tensor.RNG, widths []int) *MLP {
	if len(widths) < 2 {
		panic(fmt.Sprintf("dlrm: MLP needs at least 2 widths, got %v", widths))
	}
	m := &MLP{}
	for i := 0; i+1 < len(widths); i++ {
		relu := i+2 < len(widths)
		m.Layers = append(m.Layers, NewLayer(rng, widths[i], widths[i+1], relu))
	}
	return m
}

// MLPCache holds per-layer forward state for one sample.
type MLPCache struct {
	layers []LayerCache
	frozen bool // Forward keeps no layer inputs: only backwardInput may follow
}

// Forward runs the stack, filling cache when non-nil.
func (m *MLP) Forward(x []float64, cache *MLPCache) []float64 {
	if cache != nil && len(cache.layers) != len(m.Layers) {
		cache.layers = make([]LayerCache, len(m.Layers))
	}
	out := x
	for i, l := range m.Layers {
		var lc *LayerCache
		if cache != nil {
			lc = &cache.layers[i]
		}
		out = l.forward(out, lc, cache == nil || !cache.frozen)
	}
	return out
}

// MLPScratch holds one output buffer per layer for allocation-free inference
// (InferInto). A scratch belongs to exactly one forward pass at a time; see
// Model.ForwardScratch for the ownership rules.
type MLPScratch struct {
	acts [][]float64
	qx   []int8 // per-layer activation quantization buffer (int8 path)
}

// NewScratch allocates an inference scratch sized for this MLP. The scratch
// also carries the int8 activation buffer, so the same scratch drives both
// the float and quantized inference paths.
func (m *MLP) NewScratch() *MLPScratch {
	s := &MLPScratch{acts: make([][]float64, len(m.Layers))}
	maxIn := 0
	for i, l := range m.Layers {
		s.acts[i] = make([]float64, l.Out())
		if l.In() > maxIn {
			maxIn = l.In()
		}
	}
	s.qx = make([]int8, maxIn)
	return s
}

// MLPBatchScratch holds one activation matrix per layer (capacity rows ×
// layer width) for batched inference, plus a per-row scratch for inference
// paths that cannot be expressed as a GEMM (the quantized kernel quantizes
// each activation row individually). One batch scratch serves one
// InferBatchInto call at a time.
type MLPBatchScratch struct {
	maxB int
	acts []tensor.Matrix
	row  *MLPScratch
}

// NewBatchScratch allocates a batch scratch for up to maxB samples.
func (m *MLP) NewBatchScratch(maxB int) *MLPBatchScratch {
	if maxB < 1 {
		maxB = 1
	}
	s := &MLPBatchScratch{
		maxB: maxB,
		acts: make([]tensor.Matrix, len(m.Layers)),
		row:  m.NewScratch(),
	}
	for i, l := range m.Layers {
		s.acts[i] = tensor.Matrix{Rows: maxB, Cols: l.Out(), Data: make([]float64, maxB*l.Out())}
	}
	return s
}

// InferBatchInto runs x.Rows samples (one per row) through the stack with one
// GEMM per layer instead of a matvec per sample: each layer computes
// X·Wᵀ + b via MatMulTransInto into its scratch matrix. Per output element
// the GEMM accumulates columns in the same order as MatVecInto, so batched
// results are bit-identical to per-sample InferInto. The returned matrix
// aliases scratch storage, valid until the scratch's next use.
func (m *MLP) InferBatchInto(x *tensor.Matrix, s *MLPBatchScratch) *tensor.Matrix {
	if x.Rows > s.maxB {
		panic(fmt.Sprintf("dlrm: batch %d exceeds scratch capacity %d", x.Rows, s.maxB))
	}
	out := x
	for i, l := range m.Layers {
		act := &s.acts[i]
		act.Rows = x.Rows
		tensor.MatMulTransInto(act, out, l.W)
		for r := 0; r < act.Rows; r++ {
			row := act.Row(r)
			for j := range row {
				row[j] += l.B[j]
			}
			if l.ReLU {
				tensor.ReLUInPlace(row)
			}
		}
		out = act
	}
	return out
}

// InferInto runs the stack through the scratch's per-layer buffers with zero
// allocations: each layer computes Wx+b into its scratch row (MatVecInto) and
// applies ReLU in place. The returned slice aliases the scratch's last buffer
// and is valid until the scratch's next use. Inference only — no cache is
// filled, so it cannot feed Backward.
func (m *MLP) InferInto(x []float64, s *MLPScratch) []float64 {
	if len(s.acts) != len(m.Layers) {
		panic(fmt.Sprintf("dlrm: scratch has %d layer buffers, MLP has %d layers", len(s.acts), len(m.Layers)))
	}
	out := x
	for i, l := range m.Layers {
		buf := s.acts[i]
		tensor.MatVecInto(buf, l.W, out)
		for j := range buf {
			buf[j] += l.B[j]
		}
		if l.ReLU {
			tensor.ReLUInPlace(buf)
		}
		out = buf
	}
	return out
}

// Backward backpropagates dOut through the stack, accumulating gradients,
// and returns the gradient w.r.t. the MLP input.
func (m *MLP) Backward(dOut []float64, cache *MLPCache) []float64 {
	if cache.frozen {
		panic("dlrm: Backward on a frozen cache: its Forward kept no layer inputs")
	}
	d := dOut
	for i := len(m.Layers) - 1; i >= 0; i-- {
		d = m.Layers[i].Backward(d, &cache.layers[i])
	}
	return d
}

// backwardInput is Backward through a frozen stack: the same gradient w.r.t.
// the MLP input, no gradient accumulated on any layer.
func (m *MLP) backwardInput(dOut []float64, cache *MLPCache) []float64 {
	d := dOut
	for i := len(m.Layers) - 1; i >= 0; i-- {
		d = m.Layers[i].backwardInput(d, &cache.layers[i])
	}
	return d
}

// ZeroGrad clears accumulated gradients on all layers.
func (m *MLP) ZeroGrad() {
	for _, l := range m.Layers {
		l.zeroGrad()
	}
}

// ParamCount returns the number of trainable scalars.
func (m *MLP) ParamCount() int {
	n := 0
	for _, l := range m.Layers {
		n += len(l.W.Data) + len(l.B)
	}
	return n
}

// Clone deep-copies weights (gradient state is reset in the copy).
func (m *MLP) Clone() *MLP {
	c := &MLP{}
	for _, l := range m.Layers {
		nl := &Layer{
			W:     l.W.Clone(),
			B:     append([]float64(nil), l.B...),
			ReLU:  l.ReLU,
			gradW: tensor.NewMatrix(l.W.Rows, l.W.Cols),
			gradB: make([]float64, len(l.B)),
		}
		c.Layers = append(c.Layers, nl)
	}
	return c
}

// CopyWeightsFrom overwrites weights from src (same architecture).
func (m *MLP) CopyWeightsFrom(src *MLP) {
	if len(m.Layers) != len(src.Layers) {
		panic("dlrm: MLP CopyWeightsFrom layer count mismatch")
	}
	for i, l := range m.Layers {
		copy(l.W.Data, src.Layers[i].W.Data)
		copy(l.B, src.Layers[i].B)
	}
}

// Optimizer applies accumulated MLP gradients.
type Optimizer interface {
	// Step applies and clears the accumulated gradients of m, scaled by
	// 1/batchSize.
	Step(m *MLP, batchSize int)
}

// SGD is plain stochastic gradient descent with learning rate LR.
type SGD struct{ LR float64 }

// Step implements Optimizer.
func (s SGD) Step(m *MLP, batchSize int) {
	if batchSize <= 0 {
		batchSize = 1
	}
	scale := s.LR / float64(batchSize)
	for _, l := range m.Layers {
		for i, g := range l.gradW.Data {
			l.W.Data[i] -= scale * g
		}
		for i, g := range l.gradB {
			l.B[i] -= scale * g
		}
	}
	m.ZeroGrad()
}

// Adagrad adapts per-parameter learning rates by accumulated squared
// gradients, the optimizer production DLRMs commonly use for dense layers.
type Adagrad struct {
	LR  float64
	Eps float64 // defaults to 1e-8 when zero
}

// Step implements Optimizer.
func (a Adagrad) Step(m *MLP, batchSize int) {
	if batchSize <= 0 {
		batchSize = 1
	}
	eps := a.Eps
	if eps == 0 {
		eps = 1e-8
	}
	inv := 1 / float64(batchSize)
	for _, l := range m.Layers {
		if l.accW == nil {
			l.accW = tensor.NewMatrix(l.W.Rows, l.W.Cols)
			l.accB = make([]float64, len(l.B))
		}
		for i, g := range l.gradW.Data {
			g *= inv
			l.accW.Data[i] += g * g
			l.W.Data[i] -= a.LR * g / (math.Sqrt(l.accW.Data[i]) + eps)
		}
		for i, g := range l.gradB {
			g *= inv
			l.accB[i] += g * g
			l.B[i] -= a.LR * g / (math.Sqrt(l.accB[i]) + eps)
		}
	}
	m.ZeroGrad()
}

// Sigmoid returns the logistic function of x.
func Sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// BCELossWithLogit returns the binary cross-entropy of the logit against a
// 0/1 label, computed in a numerically stable form.
func BCELossWithLogit(logit float64, label int) float64 {
	// log(1+exp(-|x|)) + max(x,0) - x*y
	z := math.Max(logit, 0)
	return z - logit*float64(label) + math.Log1p(math.Exp(-math.Abs(logit)))
}
