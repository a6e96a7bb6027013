// Package tensor provides the dense linear-algebra substrate for LiveUpdate:
// row-major matrices, matrix products, the sparse row-combination kernel
// under every backward pass and LoRA lookup (AxpyRows), the PCA spectrum
// (Householder tridiagonalization + implicit QL) and the truncated
// (Eckart–Young) low-rank approximation (a symmetric Jacobi eigen-solver),
// and deterministic random number generation. Everything is stdlib-only and
// deterministic.
//
// On amd64 with AVX2 (useAVX2), TransMatVecInto, PairDotsInto, the axpy
// family and Moments.Of and Moments.Merge run Go assembly kernels that give
// the same bits as their scalar loops, by one rule: every output element is
// one SIMD lane, and it adds its terms in the scalar loop's order, each a
// multiply rounded on its own and then an add (VMULPD, then VADDPD; never a
// fused VFMADD, which rounds once and moves bits). Elements past the last
// full vector run one at a time in the same order. TransMatVecInto's
// epilogue keeps the rule: the bias is added after the sum, the accumulator
// first, and the ReLU tests the sign bit as reluInto does (VPCMPGTQ against
// zero, then VPAND), so −0 and −NaN become +0. PairDotsInto makes each
// partner row one lane over the features' transpose, which it builds itself
// in 4×4 register tiles. Moments.Of makes each column mean and each scatter
// cell one lane over the rows, centring both factors (VSUBPD) before the
// multiply, and Moments.Merge each updated cell and mean. Elsewhere, and in
// race builds, the scalar loops run.
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

// useAVX2 selects the AVX2 kernels; it is set once, from CPUID, and stays
// off in race builds (raceEnabled).
var useAVX2 = hasAVX2() && !raceEnabled

// checkMatVec validates one matvec call. Every panic message carries both
// operand shapes (a, x, dst) so a mismatch is diagnosable from the message
// alone, whichever operand is wrong. trans says a is the transpose of the
// operator (TransMatVecInto): x runs along its rows and dst along its
// columns.
func checkMatVec(op string, dst []float64, a *Matrix, x []float64, trans bool) {
	name, in, out, inDim, outDim := "a", a.Cols, a.Rows, "a.Cols", "a.Rows"
	if trans {
		name, in, out, inDim, outDim = "at", a.Rows, a.Cols, "at.Rows", "at.Cols"
	}
	if len(x) != in {
		panic(fmt.Sprintf("tensor: %s %s=%dx%d x=%d dst=%d: len(x) must equal %s",
			op, name, a.Rows, a.Cols, len(x), len(dst), inDim))
	}
	if len(dst) != out {
		panic(fmt.Sprintf("tensor: %s %s=%dx%d x=%d dst=%d: len(dst) must equal %s",
			op, name, a.Rows, a.Cols, len(x), len(dst), outDim))
	}
	if len(dst) > 0 && len(x) > 0 && &dst[0] == &x[0] {
		panic(fmt.Sprintf("tensor: %s %s=%dx%d x=%d dst=%d: dst must not alias x",
			op, name, a.Rows, a.Cols, len(x), len(dst)))
	}
}

// MatVecInto computes a × x into dst (len == a.Rows), overwriting dst. It
// allocates nothing: callers own dst and reuse it. dst must not alias x.
// The dense forward runs it only for layers too narrow for
// TransMatVecInto's lanes (the logit layer); it is also MatMulTransInto's
// row kernel.
//
// The kernel is register-blocked over rows, four at a time, so each loaded
// x[j] feeds four multiply-adds instead of one. Every output element keeps
// its own accumulator and sums columns in the same sequential order as the
// scalar reference, so results are bit-identical to a naive one-accumulator
// loop (TestKernelBlockedMatchesReference).
func MatVecInto(dst []float64, a *Matrix, x []float64) {
	checkMatVec("matvec", dst, a, x, false)
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

// TransMatVecInto computes act(atᵀ × x + b) into dst (len == at.Cols),
// overwriting dst: dst[o] = Σ_j at[j][o]·x[j], j ascending — the bits
// MatVecInto gives for the matrix at transposes — then dst[o] += b[o], then,
// with relu, reluInto. It is the dense layers' forward kernel, run on a
// layer's packed in×out transpose so that consecutive outputs sit side by
// side, one SIMD lane each. len(b) must equal len(dst); dst must alias
// neither x nor b.
func TransMatVecInto(dst []float64, at *Matrix, x, b []float64, relu bool) {
	checkMatVec("matvecT", dst, at, x, true)
	if len(b) != len(dst) {
		panic(fmt.Sprintf("tensor: matvecT at=%dx%d x=%d dst=%d b=%d: len(b) must equal at.Cols",
			at.Rows, at.Cols, len(x), len(dst), len(b)))
	}
	if len(dst) > 0 && &dst[0] == &b[0] {
		panic(fmt.Sprintf("tensor: matvecT at=%dx%d x=%d dst=%d b=%d: dst must not alias b",
			at.Rows, at.Cols, len(x), len(dst), len(b)))
	}
	if useAVX2 {
		transMatVecAVX2(dst, at.Data, x, b, relu)
		return
	}
	clear(dst)
	n := len(dst)
	for j, xv := range x {
		row := at.Data[j*n : (j+1)*n]
		for o, w := range row {
			dst[o] += w * xv
		}
	}
	for o := range dst {
		dst[o] += b[o]
	}
	if relu {
		reluInto(dst, dst)
	}
}

// PairDotsInto writes the dot products of f's rows taken in pairs into dst,
// row by row of the upper triangle: dst[p] = Σ_k f[i][k]·f[j][k] for each
// i < j, k ascending from +0 — the bits of Dot(f.Row(i), f.Row(j)). It is
// the DLRM feature interaction. len(dst) must be n(n-1)/2 for n = f.Rows.
// scratch, at least f.Cols·(f.Rows+3) elements, receives f's transpose, over
// which the AVX2 kernel makes each partner row one lane; what it holds on
// entry does not matter.
func PairDotsInto(dst []float64, f *Matrix, scratch []float64) {
	n, d := f.Rows, f.Cols
	if len(dst) != n*(n-1)/2 {
		panic(fmt.Sprintf("tensor: pairdots f=%dx%d dst=%d scratch=%d: len(dst) must equal %d, f.Rows choose 2",
			n, d, len(dst), len(scratch), n*(n-1)/2))
	}
	if len(scratch) < d*(n+3) {
		panic(fmt.Sprintf("tensor: pairdots f=%dx%d dst=%d scratch=%d: len(scratch) must be at least %d, f.Cols·(f.Rows+3)",
			n, d, len(dst), len(scratch), d*(n+3)))
	}
	if useAVX2 {
		pairDotsAVX2(dst, f.Data[:n*d], scratch, n, d)
		return
	}
	p := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dst[p] = Dot(f.Row(i), f.Row(j))
			p++
		}
	}
}

// TransposeInto writes aᵀ into dst (a.Cols × a.Rows); dst must not alias a.
func TransposeInto(dst, a *Matrix) {
	if dst.Rows != a.Cols || dst.Cols != a.Rows {
		panic(fmt.Sprintf("tensor: transpose a=%dx%d dst=%dx%d: dst must be %dx%d",
			a.Rows, a.Cols, dst.Rows, dst.Cols, a.Cols, a.Rows))
	}
	for i := 0; i < a.Rows; i++ {
		for j, v := range a.Row(i) {
			dst.Data[j*dst.Cols+i] = v
		}
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
// the dot product of a's row i with b's row o, so row i is exactly
// MatVecInto(b, a's row i). Both operands stream row-wise with no
// transposition.
func MatMulTransInto(dst, a, b *Matrix) {
	checkMatMul("matmulT", dst, a, b, a.Rows, b.Rows, a.Cols == b.Cols)
	for i := 0; i < a.Rows; i++ {
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
	axpy1(y, alpha, x)
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

// axpy1, axpy2 and axpy4 are AxpyRows' passes over dst (axpy1 is also
// Axpy's); every x has len(dst) elements.
func axpy1(dst []float64, c0 float64, x0 []float64) {
	x0 = x0[:len(dst)]
	if useAVX2 {
		axpy1AVX2(dst, c0, x0)
		return
	}
	for i := range dst {
		dst[i] += c0 * x0[i]
	}
}

func axpy2(dst []float64, c0, c1 float64, x0, x1 []float64) {
	x0, x1 = x0[:len(dst)], x1[:len(dst)]
	if useAVX2 {
		axpy2AVX2(dst, c0, c1, x0, x1)
		return
	}
	for i := range dst {
		s := dst[i]
		s += c0 * x0[i]
		s += c1 * x1[i]
		dst[i] = s
	}
}

func axpy4(dst []float64, c0, c1, c2, c3 float64, x0, x1, x2, x3 []float64) {
	x0, x1, x2, x3 = x0[:len(dst)], x1[:len(dst)], x2[:len(dst)], x3[:len(dst)]
	if useAVX2 {
		axpy4AVX2(dst, c0, c1, c2, c3, x0, x1, x2, x3)
		return
	}
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
