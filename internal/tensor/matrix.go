// Package tensor provides the dense linear-algebra substrate for LiveUpdate:
// row-major matrices, matrix products, the sparse row-combination kernel
// under every backward pass and LoRA lookup (AxpyRows), the PCA spectrum
// (Householder tridiagonalization + implicit QL) and the truncated
// (Eckart–Young) low-rank approximation (a symmetric Jacobi eigen-solver),
// and deterministic random number generation. Everything is stdlib-only and
// deterministic.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zero-valued rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero resets all elements to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// checkMatVec validates one matvec call. Every panic message carries both
// operand shapes (a, x, dst) so a mismatch is diagnosable from the message
// alone, whichever operand is wrong.
func checkMatVec(op string, dst []float64, a *Matrix, x []float64) {
	if len(x) != a.Cols {
		panic(fmt.Sprintf("tensor: %s a=%dx%d x=%d dst=%d: len(x) must equal a.Cols",
			op, a.Rows, a.Cols, len(x), len(dst)))
	}
	if len(dst) != a.Rows {
		panic(fmt.Sprintf("tensor: %s a=%dx%d x=%d dst=%d: len(dst) must equal a.Rows",
			op, a.Rows, a.Cols, len(x), len(dst)))
	}
	if len(dst) > 0 && len(x) > 0 && &dst[0] == &x[0] {
		panic(fmt.Sprintf("tensor: %s a=%dx%d x=%d dst=%d: dst must not alias x",
			op, a.Rows, a.Cols, len(x), len(dst)))
	}
}

// MatVecInto computes a × x into dst (len == a.Rows), overwriting dst. It is
// the allocation-free core of the serving fast path: callers own dst and
// reuse it across requests. dst must not alias x.
//
// The kernel is register-blocked over rows, four at a time, so each loaded
// x[j] feeds four multiply-adds instead of one. Every output element keeps
// its own accumulator and sums columns in the same sequential order as the
// scalar reference, so results are bit-identical to a naive one-accumulator
// loop (TestKernelBlockedMatchesReference).
func MatVecInto(dst []float64, a *Matrix, x []float64) {
	checkMatVec("matvec", dst, a, x)
	n := a.Cols
	i := 0
	for ; i+4 <= a.Rows; i += 4 {
		r0 := a.Data[(i+0)*n : (i+1)*n]
		r1 := a.Data[(i+1)*n : (i+2)*n]
		r2 := a.Data[(i+2)*n : (i+3)*n]
		r3 := a.Data[(i+3)*n : (i+4)*n]
		var s0, s1, s2, s3 float64
		for j, xv := range x {
			s0 += r0[j] * xv
			s1 += r1[j] * xv
			s2 += r2[j] * xv
			s3 += r3[j] * xv
		}
		dst[i+0] = s0
		dst[i+1] = s1
		dst[i+2] = s2
		dst[i+3] = s3
	}
	for ; i < a.Rows; i++ {
		row := a.Data[i*n : (i+1)*n]
		s := 0.0
		for j, xv := range x {
			s += row[j] * xv
		}
		dst[i] = s
	}
}

// checkMatMul validates one matmul-family call: both operand shapes appear in
// every message, and dst must alias neither operand.
func checkMatMul(op string, dst, a, b *Matrix, wantRows, wantCols int, innerOK bool) {
	if !innerOK {
		panic(fmt.Sprintf("tensor: %s a=%dx%d b=%dx%d: inner dimensions must agree",
			op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != wantRows || dst.Cols != wantCols {
		panic(fmt.Sprintf("tensor: %s a=%dx%d b=%dx%d dst=%dx%d: dst must be %dx%d",
			op, a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols, wantRows, wantCols))
	}
	if len(dst.Data) > 0 {
		if len(a.Data) > 0 && &dst.Data[0] == &a.Data[0] {
			panic(fmt.Sprintf("tensor: %s a=%dx%d b=%dx%d dst=%dx%d: dst must not alias a",
				op, a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
		}
		if len(b.Data) > 0 && &dst.Data[0] == &b.Data[0] {
			panic(fmt.Sprintf("tensor: %s a=%dx%d b=%dx%d dst=%dx%d: dst must not alias b",
				op, a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
		}
	}
}

// MatMulTransInto computes a × bᵀ into dst (a.Rows × b.Rows): dst[i][o] is
// the dot product of a's row i with b's row o. This is the batched-inference
// GEMM — a batch of activation rows times a row-major weight matrix — and
// both operands stream row-wise with no transposition. The kernel is tiled
// 2×2 (two a rows × two b rows share four register accumulators), and each
// output element sums columns in the same sequential order as MatVecInto, so
// a batched forward is bit-identical to per-sample matvecs.
func MatMulTransInto(dst, a, b *Matrix) {
	checkMatMul("matmulT", dst, a, b, a.Rows, b.Rows, a.Cols == b.Cols)
	i := 0
	for ; i+2 <= a.Rows; i += 2 {
		x0, x1 := a.Row(i), a.Row(i+1)
		c0, c1 := dst.Row(i), dst.Row(i+1)
		o := 0
		for ; o+2 <= b.Rows; o += 2 {
			w0, w1 := b.Row(o), b.Row(o+1)
			var s00, s01, s10, s11 float64
			for j, xv0 := range x0 {
				xv1 := x1[j]
				wv0, wv1 := w0[j], w1[j]
				s00 += wv0 * xv0
				s01 += wv1 * xv0
				s10 += wv0 * xv1
				s11 += wv1 * xv1
			}
			c0[o], c0[o+1] = s00, s01
			c1[o], c1[o+1] = s10, s11
		}
		for ; o < b.Rows; o++ {
			w := b.Row(o)
			var s0, s1 float64
			for j, wv := range w {
				s0 += wv * x0[j]
				s1 += wv * x1[j]
			}
			c0[o], c1[o] = s0, s1
		}
	}
	for ; i < a.Rows; i++ {
		MatVecInto(dst.Row(i), b, a.Row(i))
	}
}

// reluInto writes max(src, 0) into dst (same length; dst may be src). A
// neuron's sign is a coin flip, so the kernel does not branch on it: it tests
// the float's bits as a signed integer — positive exactly when the value is
// greater than zero — which compiles to a conditional move. Every value that
// is not greater than zero becomes +0.0, -0.0 included; a NaN passes through
// or becomes +0.0 with its sign bit.
func reluInto(dst, src []float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		b := math.Float64bits(v)
		if int64(b) <= 0 {
			b = 0
		}
		dst[i] = math.Float64frombits(b)
	}
}

// ReLUInPlace clamps the elements of x that are not greater than zero to
// +0.0 in place.
func ReLUInPlace(x []float64) { reluInto(x, x) }

// ReLUMaskInto writes ReLU's backward pass into dst: grad where pre is
// greater than zero, +0.0 elsewhere (same lengths; dst may be grad).
// Branch-free on pre's sign, like ReLUInPlace.
func ReLUMaskInto(dst, grad, pre []float64) {
	dst, pre = dst[:len(grad)], pre[:len(grad)]
	for i, g := range grad {
		b := math.Float64bits(g)
		if int64(math.Float64bits(pre[i])) <= 0 {
			b = 0
		}
		dst[i] = math.Float64frombits(b)
	}
}

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: dot length mismatch %d vs %d", len(x), len(y)))
	}
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Axpy performs y += alpha*x element-wise.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// AxpyRows adds Σₖ (alpha·a[k])·x.Row(k) into dst, over the k with a[k] ≠ 0
// in ascending order: Wᵀ·v for a sparse v, or a LoRA row's A·B. len(a) must
// equal x.Rows and len(dst) x.Cols.
//
// The non-zero terms are taken four per pass over dst, so each dst element
// is loaded and stored once per four rows instead of once per row. Every
// element still adds its terms one at a time in k order, so the result is
// bit-identical to calling Axpy(alpha*a[k], x.Row(k), dst) for each such k
// in turn (TestKernelAxpyRowsMatchesAxpy).
func AxpyRows(dst []float64, alpha float64, a []float64, x *Matrix) {
	if len(a) != x.Rows || len(dst) != x.Cols {
		panic(fmt.Sprintf("tensor: axpyrows a=%d x=%dx%d dst=%d: len(a) must equal x.Rows and len(dst) x.Cols",
			len(a), x.Rows, x.Cols, len(dst)))
	}
	n := len(dst)
	row := func(k int) []float64 { return x.Data[k*n : k*n+n] }
	for k := 0; ; {
		var ks [4]int
		c := 0
		for ; k < len(a) && c < 4; k++ {
			ks[c] = k
			c += nonzero(a[k])
		}
		switch c {
		case 0:
			return
		case 1:
			axpy1(dst, alpha*a[ks[0]], row(ks[0]))
			return
		case 2:
			axpy2(dst, alpha*a[ks[0]], alpha*a[ks[1]], row(ks[0]), row(ks[1]))
			return
		case 3:
			axpy2(dst, alpha*a[ks[0]], alpha*a[ks[1]], row(ks[0]), row(ks[1]))
			axpy1(dst, alpha*a[ks[2]], row(ks[2]))
			return
		}
		axpy4(dst, alpha*a[ks[0]], alpha*a[ks[1]], alpha*a[ks[2]], alpha*a[ks[3]],
			row(ks[0]), row(ks[1]), row(ks[2]), row(ks[3]))
	}
}

// nonzero is 1 when v ≠ 0 (NaN included) and 0 otherwise. It compiles to a
// flag set, not a branch: which ReLU outputs are zero is a coin flip.
func nonzero(v float64) int {
	if v != 0 {
		return 1
	}
	return 0
}

// axpy1, axpy2 and axpy4 are AxpyRows' passes over dst; every x has len(dst)
// elements.
func axpy1(dst []float64, c0 float64, x0 []float64) {
	x0 = x0[:len(dst)]
	for i := range dst {
		dst[i] += c0 * x0[i]
	}
}

func axpy2(dst []float64, c0, c1 float64, x0, x1 []float64) {
	x0, x1 = x0[:len(dst)], x1[:len(dst)]
	for i := range dst {
		s := dst[i]
		s += c0 * x0[i]
		s += c1 * x1[i]
		dst[i] = s
	}
}

func axpy4(dst []float64, c0, c1, c2, c3 float64, x0, x1, x2, x3 []float64) {
	x0, x1, x2, x3 = x0[:len(dst)], x1[:len(dst)], x2[:len(dst)], x3[:len(dst)]
	for i := range dst {
		s := dst[i]
		s += c0 * x0[i]
		s += c1 * x1[i]
		s += c2 * x2[i]
		s += c3 * x3[i]
		dst[i] = s
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// RandomMatrix fills a rows×cols matrix with N(0, stddev²) entries.
func RandomMatrix(rng *RNG, rows, cols int, stddev float64) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * stddev
	}
	return m
}

// XavierMatrix fills a rows×cols matrix with Xavier/Glorot-initialized
// entries suitable for MLP layers (uniform in ±sqrt(6/(fanIn+fanOut))).
func XavierMatrix(rng *RNG, rows, cols int) *Matrix {
	limit := math.Sqrt(6 / float64(rows+cols))
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
	return m
}
