package tensor

import (
	"fmt"
	"math"
)

// QuantizedMatrix is an int8 row-major matrix with one dequantization scale
// per row: the float value of element (i, j) is Data[i*Cols+j] * Scale[i].
// Rows are quantized symmetrically (no zero point), scale = maxAbs/127, so a
// zero row has scale 0 and quantizes exactly.
type QuantizedMatrix struct {
	Rows, Cols int
	Data       []int8
	Scale      []float64
}

// Quantize converts m to int8 with per-row symmetric scales.
func Quantize(m *Matrix) *QuantizedMatrix {
	q := &QuantizedMatrix{
		Rows:  m.Rows,
		Cols:  m.Cols,
		Data:  make([]int8, m.Rows*m.Cols),
		Scale: make([]float64, m.Rows),
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		maxAbs := 0.0
		for _, v := range row {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs == 0 {
			continue
		}
		scale := maxAbs / 127
		inv := 1 / scale
		q.Scale[i] = scale
		qrow := q.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			qrow[j] = int8(math.Round(v * inv))
		}
	}
	return q
}

// QuantizeVectorInto quantizes x into xq (same length) with one shared
// symmetric scale, returned to the caller. The activation is quantized once
// per layer and reused across all output rows of the int8 matvec.
func QuantizeVectorInto(xq []int8, x []float64) float64 {
	if len(xq) != len(x) {
		panic(fmt.Sprintf("tensor: quantize vector xq=%d x=%d: lengths must match", len(xq), len(x)))
	}
	maxAbs := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		for i := range xq {
			xq[i] = 0
		}
		return 0
	}
	scale := maxAbs / 127
	inv := 1 / scale
	for i, v := range x {
		xq[i] = int8(math.Round(v * inv))
	}
	return scale
}

// MatVecInto computes q × xq into dst, where xq was produced by
// QuantizeVectorInto with scale sx. The dot products run entirely in int32 —
// no per-element dequantization — and each output is rescaled once by the
// combined row×activation scale. Safe for inner dimensions below ~133k
// (127*127 per term in an int32 accumulator). dst must not alias xq's
// backing array (they have different element types, so they never do).
func (q *QuantizedMatrix) MatVecInto(dst []float64, xq []int8, sx float64) {
	if len(xq) != q.Cols {
		panic(fmt.Sprintf("tensor: qmatvec a=%dx%d x=%d dst=%d: len(x) must equal a.Cols",
			q.Rows, q.Cols, len(xq), len(dst)))
	}
	if len(dst) != q.Rows {
		panic(fmt.Sprintf("tensor: qmatvec a=%dx%d x=%d dst=%d: len(dst) must equal a.Rows",
			q.Rows, q.Cols, len(xq), len(dst)))
	}
	n := q.Cols
	i := 0
	for ; i+4 <= q.Rows; i += 4 {
		r0 := q.Data[(i+0)*n : (i+1)*n]
		r1 := q.Data[(i+1)*n : (i+2)*n]
		r2 := q.Data[(i+2)*n : (i+3)*n]
		r3 := q.Data[(i+3)*n : (i+4)*n]
		var s0, s1, s2, s3 int32
		for j, xv := range xq {
			v := int32(xv)
			s0 += int32(r0[j]) * v
			s1 += int32(r1[j]) * v
			s2 += int32(r2[j]) * v
			s3 += int32(r3[j]) * v
		}
		dst[i+0] = float64(s0) * (q.Scale[i+0] * sx)
		dst[i+1] = float64(s1) * (q.Scale[i+1] * sx)
		dst[i+2] = float64(s2) * (q.Scale[i+2] * sx)
		dst[i+3] = float64(s3) * (q.Scale[i+3] * sx)
	}
	for ; i < q.Rows; i++ {
		row := q.Data[i*n : (i+1)*n]
		var s int32
		for j, xv := range xq {
			s += int32(row[j]) * int32(xv)
		}
		dst[i] = float64(s) * (q.Scale[i] * sx)
	}
}

// TruncateF16 drops the low 13 mantissa bits of v's float32 form, leaving the
// 10 explicit mantissa bits an IEEE binary16 would keep. It is an "f16-style"
// truncation — exponent range stays float32, no rounding — used to emulate
// half-precision weight storage without a real f16 type.
func TruncateF16(v float64) float64 {
	bits := math.Float32bits(float32(v))
	bits &^= (1 << 13) - 1
	return float64(math.Float32frombits(bits))
}

// TruncateF16Matrix returns a copy of m with every element passed through
// TruncateF16.
func TruncateF16Matrix(m *Matrix) *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = TruncateF16(v)
	}
	return out
}
