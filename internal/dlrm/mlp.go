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

// MLPBatchScratch holds one activation matrix per layer (capacity rows ×
// layer width) for the batched pass, plus the int8 activation buffer the
// quantized kernel fills one row at a time. One batch scratch serves one
// InferBatchInto call at a time.
type MLPBatchScratch struct {
	maxB int
	acts []tensor.Matrix
	qx   []int8
}

// NewBatchScratch allocates a batch scratch for up to maxB samples.
func (m *MLP) NewBatchScratch(maxB int) *MLPBatchScratch {
	if maxB < 1 {
		maxB = 1
	}
	s := &MLPBatchScratch{maxB: maxB, acts: make([]tensor.Matrix, len(m.Layers))}
	width, maxIn := 0, 0
	for _, l := range m.Layers {
		width += l.Out()
		maxIn = max(maxIn, l.In())
	}
	slab := make([]float64, maxB*width) // one allocation for every layer
	for i, l := range m.Layers {
		s.acts[i] = tensor.Matrix{Rows: maxB, Cols: l.Out(), Data: carve(&slab, maxB*l.Out())}
	}
	s.qx = make([]int8, maxIn)
	return s
}

// InferBatchInto runs x.Rows samples (one per row) through the stack with one
// GEMM per layer: each layer computes X·Wᵀ + b via MatMulTransInto into its
// scratch matrix. Per output element the GEMM accumulates columns in the same
// order as MatVecInto (one row falls through to it), so every row is
// bit-identical to a per-sample matvec forward. The returned matrix aliases
// scratch storage, valid until the scratch's next use; a training step reads
// the activations it leaves there (MLP.backward).
func (m *MLP) InferBatchInto(x *tensor.Matrix, s *MLPBatchScratch) *tensor.Matrix {
	checkBatch(x, s)
	out := x
	for i, l := range m.Layers {
		act := &s.acts[i]
		act.Rows = x.Rows
		tensor.MatMulTransInto(act, out, l.W)
		for r := 0; r < act.Rows; r++ {
			biasAct(act.Row(r), l.B, l.ReLU)
		}
		out = act
	}
	return out
}

// carve cuts the next n elements off *slab, capacity-capped so an append
// on the piece cannot spill into its neighbour.
func carve(slab *[]float64, n int) []float64 {
	piece := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return piece
}

// checkBatch panics when x has more rows than the scratch holds.
func checkBatch(x *tensor.Matrix, s *MLPBatchScratch) {
	if x.Rows > s.maxB {
		panic(fmt.Sprintf("dlrm: batch %d exceeds scratch capacity %d", x.Rows, s.maxB))
	}
}

// biasAct adds the bias b to one output row and applies the ReLU in place
// when relu is set.
func biasAct(row, b []float64, relu bool) {
	for j := range row {
		row[j] += b[j]
	}
	if relu {
		tensor.ReLUInPlace(row)
	}
}

// layerGrad is one layer's backward scratch: the gradients w.r.t. its
// pre-activation and w.r.t. its input.
type layerGrad struct{ dPre, dIn []float64 }

// newGrads allocates the stack's backward scratch, one layerGrad per layer.
func (m *MLP) newGrads() []layerGrad {
	gs := make([]layerGrad, len(m.Layers))
	for i, l := range m.Layers {
		gs[i] = layerGrad{dPre: make([]float64, l.Out()), dIn: make([]float64, l.In())}
	}
	return gs
}

// backward backpropagates dOut through the stack from the activations a
// one-sample InferBatchInto left in row 0 of s, whose input was x. Each
// layer's ReLU mask is read off its activation row: ReLU keeps a value
// exactly when it is positive, so the activation masks the bits the
// pre-activation would. With params it accumulates every weight and bias
// gradient; with wantIn it returns the gradient w.r.t. x, and otherwise
// skips layer 0's Wᵀ·dPre and returns nil. The result aliases gs.
func (m *MLP) backward(dOut, x []float64, s *MLPBatchScratch, gs []layerGrad, params, wantIn bool) []float64 {
	d := dOut
	for i := len(m.Layers) - 1; i >= 0; i-- {
		l, g := m.Layers[i], &gs[i]
		if l.ReLU {
			tensor.ReLUMaskInto(g.dPre, d, s.acts[i].Row(0))
			d = g.dPre
		}
		if params {
			in := x
			if i > 0 {
				in = s.acts[i-1].Row(0)
			}
			l.accumulate(d, in)
		}
		if i == 0 && !wantIn {
			return nil
		}
		// Wᵀ·dPre: the rows of W whose output the ReLU let through, summed
		// in row order.
		clear(g.dIn)
		tensor.AxpyRows(g.dIn, 1, d, l.W)
		d = g.dIn
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
