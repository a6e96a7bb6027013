// Package dlrm implements the Deep Learning Recommendation Model of paper
// §II-A from scratch: bottom/top MLPs, dot-product feature interaction,
// embedding pooling via internal/emt, binary cross-entropy loss, and an SGD
// optimizer. It substitutes for TorchRec+FBGEMM on H100s; the
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

	// wt is W's in×out transpose, the forward kernel's operand
	// (tensor.TransMatVecInto). Every write to W is followed by a repack:
	// construction, clone, copyWeightsFrom, truncateF16 and the Trainer's
	// optimizer step.
	wt *tensor.Matrix

	// Gradient accumulators, applied by the optimizer per batch.
	gradW *tensor.Matrix
	gradB []float64
}

// newLayer builds an in→out layer with Xavier-initialized weights.
func newLayer(rng *tensor.RNG, in, out int, relu bool) *Layer {
	return layerOf(tensor.XavierMatrix(rng, out, in), make([]float64, out), relu)
}

// layerOf builds a layer around w and b with zeroed gradients and w packed.
func layerOf(w *tensor.Matrix, b []float64, relu bool) *Layer {
	l := &Layer{
		W:     w,
		B:     b,
		ReLU:  relu,
		wt:    tensor.NewMatrix(w.Cols, w.Rows),
		gradW: tensor.NewMatrix(w.Rows, w.Cols),
		gradB: make([]float64, len(b)),
	}
	l.repack()
	return l
}

// repack rewrites wt from W.
func (l *Layer) repack() { tensor.TransposeInto(l.wt, l.W) }

// accumulate adds the parameter half of the backward pass — the outer
// product dPre·inᵀ and dPre itself — to the layer's gradient accumulators.
func (l *Layer) accumulate(dPre, in []float64) {
	for o, dp := range dPre {
		if dp == 0 {
			continue
		}
		tensor.Axpy(dp, in, l.gradW.Row(o))
		l.gradB[o] += dp
	}
}

// in returns the input width, out the output width.
func (l *Layer) in() int  { return l.W.Cols }
func (l *Layer) out() int { return l.W.Rows }

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

// newMLP builds an MLP with the given widths; widths[0] is the input size.
// All hidden layers use ReLU; the final layer is linear.
func newMLP(rng *tensor.RNG, widths []int) *MLP {
	if len(widths) < 2 {
		panic(fmt.Sprintf("dlrm: MLP needs at least 2 widths, got %v", widths))
	}
	m := &MLP{}
	for i := 0; i+1 < len(widths); i++ {
		relu := i+2 < len(widths)
		m.Layers = append(m.Layers, newLayer(rng, widths[i], widths[i+1], relu))
	}
	return m
}

// mlpBatchScratch holds one activation matrix per layer (capacity rows ×
// layer width) for the batched pass, plus the int8 activation buffer the
// quantized kernel fills one row at a time. One batch scratch serves one
// inferBatchInto call at a time.
type mlpBatchScratch struct {
	maxB int
	acts []tensor.Matrix
	qx   []int8
}

// newBatchScratch allocates a batch scratch for up to maxB samples.
func (m *MLP) newBatchScratch(maxB int) *mlpBatchScratch {
	if maxB < 1 {
		maxB = 1
	}
	s := &mlpBatchScratch{maxB: maxB, acts: make([]tensor.Matrix, len(m.Layers))}
	width, maxIn := 0, 0
	for _, l := range m.Layers {
		width += l.out()
		maxIn = max(maxIn, l.in())
	}
	slab := make([]float64, maxB*width) // one allocation for every layer
	for i, l := range m.Layers {
		s.acts[i] = tensor.Matrix{Rows: maxB, Cols: l.out(), Data: carve(&slab, maxB*l.out())}
	}
	s.qx = make([]int8, maxIn)
	return s
}

// minLanes is the narrowest layer that runs the transposed kernel: below one
// AVX2 vector of outputs (the 32→1 logit layer) the row-major scalar
// MatVecInto is faster.
const minLanes = 4

// inferBatchInto runs x.Rows samples (one per row) through the stack, layer
// by layer: each row goes through TransMatVecInto on the packed transpose wt,
// which adds the bias and applies the ReLU in the same pass (for a layer
// narrower than minLanes, MatVecInto on W, then biasAct). Both give every
// output the bits of a one-accumulator matvec followed by the bias and the
// ReLU, so each row is bit-identical to a per-sample forward. The returned
// matrix aliases scratch storage, valid until the scratch's next use; a
// training step reads the activations it leaves there (MLP.backward).
func (m *MLP) inferBatchInto(x *tensor.Matrix, s *mlpBatchScratch) *tensor.Matrix {
	checkBatch(x, s)
	out := x
	for i, l := range m.Layers {
		act := &s.acts[i]
		act.Rows = x.Rows
		for r := 0; r < x.Rows; r++ {
			row := act.Row(r)
			if l.out() >= minLanes {
				tensor.TransMatVecInto(row, l.wt, out.Row(r), l.B, l.ReLU)
			} else {
				tensor.MatVecInto(row, l.W, out.Row(r))
				biasAct(row, l.B, l.ReLU)
			}
		}
		out = act
	}
	return out
}

// repack rewrites every layer's packed transpose from its weights.
func (m *MLP) repack() {
	for _, l := range m.Layers {
		l.repack()
	}
}

// carve cuts the next n elements off *slab, capacity-capped so an append
// on the piece cannot spill into its neighbour.
func carve(slab *[]float64, n int) []float64 {
	piece := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return piece
}

// checkBatch panics when x has more rows than the scratch holds.
func checkBatch(x *tensor.Matrix, s *mlpBatchScratch) {
	if x.Rows > s.maxB {
		panic(fmt.Sprintf("dlrm: batch %d exceeds scratch capacity %d", x.Rows, s.maxB))
	}
}

// biasAct adds the bias b to one output row and applies the ReLU in place
// when relu is set: the epilogue of a layer TransMatVecInto does not run
// (the logit layer, and every int8 layer).
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
		gs[i] = layerGrad{dPre: make([]float64, l.out()), dIn: make([]float64, l.in())}
	}
	return gs
}

// backward backpropagates dOut through the stack from the activations a
// one-sample inferBatchInto left in row 0 of s, whose input was x. Each
// layer's ReLU mask is read off its activation row: ReLU keeps a value
// exactly when it is positive, so the activation masks the bits the
// pre-activation would. With params it accumulates every weight and bias
// gradient; with wantIn it returns the gradient w.r.t. x, and otherwise
// skips layer 0's Wᵀ·dPre and returns nil. The result aliases gs.
func (m *MLP) backward(dOut, x []float64, s *mlpBatchScratch, gs []layerGrad, params, wantIn bool) []float64 {
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

// zeroGrad clears accumulated gradients on all layers.
func (m *MLP) zeroGrad() {
	for _, l := range m.Layers {
		l.zeroGrad()
	}
}

// paramCount returns the number of trainable scalars.
func (m *MLP) paramCount() int {
	n := 0
	for _, l := range m.Layers {
		n += len(l.W.Data) + len(l.B)
	}
	return n
}

// clone deep-copies weights (gradient state is reset in the copy).
func (m *MLP) clone() *MLP {
	c := &MLP{}
	for _, l := range m.Layers {
		c.Layers = append(c.Layers, layerOf(l.W.Clone(), append([]float64(nil), l.B...), l.ReLU))
	}
	return c
}

// copyWeightsFrom overwrites weights from src (same architecture).
func (m *MLP) copyWeightsFrom(src *MLP) {
	if len(m.Layers) != len(src.Layers) {
		panic("dlrm: MLP copyWeightsFrom layer count mismatch")
	}
	for i, l := range m.Layers {
		copy(l.W.Data, src.Layers[i].W.Data)
		copy(l.B, src.Layers[i].B)
		l.repack()
	}
}

// Optimizer applies accumulated MLP gradients. It writes only W and B; the
// Trainer repacks each layer's transpose after every Step.
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
	m.zeroGrad()
}

// sigmoid returns the logistic function of x.
func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// bCELossWithLogit returns the binary cross-entropy of the logit against a
// 0/1 label, computed in a numerically stable form.
func bCELossWithLogit(logit float64, label int) float64 {
	// log(1+exp(-|x|)) + max(x,0) - x*y
	z := math.Max(logit, 0)
	return z - logit*float64(label) + math.Log1p(math.Exp(-math.Abs(logit)))
}
