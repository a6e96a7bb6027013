package dlrm

import (
	"fmt"

	"liveupdate/internal/tensor"
)

// QuantMode selects the numeric format of the published inference weights.
// Training always runs in float64; quantization produces a read-only snapshot
// of the dense MLPs at publish time (model construction, weight copy-in), so
// it changes served probabilities only — never gradients or virtual-time
// statistics.
type QuantMode string

const (
	// QuantNone serves float64 weights (the default, and the baseline the
	// AUC gate compares against).
	QuantNone QuantMode = "none"
	// QuantInt8 serves int8 weights with one symmetric scale per output row;
	// dot products run in int32 with no per-element dequantization.
	QuantInt8 QuantMode = "int8"
	// QuantF16 serves float64 weights truncated to f16-style precision (10
	// explicit mantissa bits, float32 exponent range).
	QuantF16 QuantMode = "f16"
)

// QuantModes lists the supported modes in display order.
func QuantModes() []QuantMode { return []QuantMode{QuantNone, QuantInt8, QuantF16} }

// ParseQuantMode validates a mode string ("" means none).
func ParseQuantMode(s string) (QuantMode, error) {
	switch QuantMode(s) {
	case "", QuantNone:
		return QuantNone, nil
	case QuantInt8:
		return QuantInt8, nil
	case QuantF16:
		return QuantF16, nil
	}
	return "", fmt.Errorf("dlrm: unknown quantization mode %q (want none, int8, or f16)", s)
}

// inferencer is the inference contract a published MLP snapshot satisfies:
// the float64 *MLP, its f16-truncated clone, and *quantizedMLP all implement
// it, so the forward pass dispatches on the published snapshot without
// branching on the mode.
type inferencer interface {
	inferBatchInto(x *tensor.Matrix, s *mlpBatchScratch) *tensor.Matrix
}

// quantLayer is one published int8 layer.
type quantLayer struct {
	qw   *tensor.QuantizedMatrix
	b    []float64
	relu bool
}

// quantizedMLP is an int8 snapshot of an MLP, built by MLP.quantize. It is
// immutable after construction and safe for concurrent readers.
type quantizedMLP struct {
	layers []quantLayer
}

// quantize snapshots the MLP's weights into int8 with per-row scales. Biases
// stay float64: they are added after the int32 dot product is rescaled.
func (m *MLP) quantize() *quantizedMLP {
	q := &quantizedMLP{layers: make([]quantLayer, len(m.Layers))}
	for i, l := range m.Layers {
		q.layers[i] = quantLayer{
			qw:   tensor.Quantize(l.W),
			b:    append([]float64(nil), l.B...),
			relu: l.ReLU,
		}
	}
	return q
}

// truncateF16 returns a clone of the MLP with every weight and bias passed
// through tensor.TruncateF16, emulating half-precision weight storage while
// keeping the float64 kernels.
func (m *MLP) truncateF16() *MLP {
	c := &MLP{}
	for _, l := range m.Layers {
		b := make([]float64, len(l.B))
		for i, v := range l.B {
			b[i] = tensor.TruncateF16(v)
		}
		c.Layers = append(c.Layers, layerOf(tensor.TruncateF16Matrix(l.W), b, l.ReLU))
	}
	return c
}

// inferBatchInto runs each row of x through the quantized stack with zero
// heap allocations: per layer, each row's input activation is quantized once
// (one shared scale per row) into the scratch's int8 buffer, the int32
// dot-product kernel writes the row's output, then the float64 bias and ReLU
// are applied in place. The int8 kernel quantizes activations per row, so
// the batch cannot fold into one integer GEMM.
func (q *quantizedMLP) inferBatchInto(x *tensor.Matrix, s *mlpBatchScratch) *tensor.Matrix {
	checkBatch(x, s)
	out := x
	for i := range q.layers {
		l := &q.layers[i]
		act := &s.acts[i]
		act.Rows = x.Rows
		xq := s.qx[:l.qw.Cols]
		for r := 0; r < x.Rows; r++ {
			sx := tensor.QuantizeVectorInto(xq, out.Row(r))
			row := act.Row(r)
			l.qw.MatVecInto(row, xq, sx)
			biasAct(row, l.b, l.relu)
		}
		out = act
	}
	return out
}
