package tensor

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// mustPanic runs f and asserts it panics with a message containing every
// fragment in want.
func mustPanic(t *testing.T, name string, want []string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s: expected panic, got none", name)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("%s: panic value %v is not a string", name, r)
		}
		for _, w := range want {
			if !strings.Contains(msg, w) {
				t.Errorf("%s: panic %q missing fragment %q", name, msg, w)
			}
		}
	}()
	f()
}

// TestKernelGuards is the table of every shape-mismatch path of the
// matvec/matmul/pair-dot kernels: each must panic with the operand shapes in
// the message, and dst aliasing x (or TransMatVecInto's bias) must be
// rejected.
func TestKernelGuards(t *testing.T) {
	a := RandomMatrix(NewRNG(1), 3, 4, 1)
	sq := RandomMatrix(NewRNG(2), 4, 4, 1)
	at := transpose(a)
	vec := func(n int) []float64 { return make([]float64, n) }

	cases := []struct {
		name string
		want []string
		f    func()
	}{
		{"matvec x too short", []string{"matvec", "a=3x4", "x=3", "len(x) must equal a.Cols"},
			func() { MatVecInto(make([]float64, 3), a, make([]float64, 3)) }},
		{"matvec x too long", []string{"matvec", "a=3x4", "x=5", "len(x) must equal a.Cols"},
			func() { MatVecInto(make([]float64, 3), a, make([]float64, 5)) }},
		{"matvec dst wrong", []string{"matvec", "a=3x4", "dst=2", "len(dst) must equal a.Rows"},
			func() { MatVecInto(make([]float64, 2), a, make([]float64, 4)) }},
		{"matvec dst aliases x", []string{"matvec", "a=4x4", "dst must not alias x"},
			func() { buf := make([]float64, 4); MatVecInto(buf, sq, buf) }},
		{"matvecT x wrong", []string{"matvecT", "at=4x3", "x=3", "dst=3", "len(x) must equal at.Rows"},
			func() { TransMatVecInto(vec(3), at, vec(3), vec(3), false) }},
		{"matvecT dst wrong", []string{"matvecT", "at=4x3", "x=4", "dst=4", "len(dst) must equal at.Cols"},
			func() { TransMatVecInto(vec(4), at, vec(4), vec(4), false) }},
		{"matvecT dst aliases x", []string{"matvecT", "at=4x4", "x=4", "dst=4", "dst must not alias x"},
			func() { buf := vec(4); TransMatVecInto(buf, sq, buf, vec(4), true) }},
		{"matvecT bias short", []string{"matvecT", "at=4x3", "x=4", "dst=3", "b=2", "len(b) must equal at.Cols"},
			func() { TransMatVecInto(vec(3), at, vec(4), vec(2), true) }},
		{"matvecT bias long", []string{"matvecT", "at=4x3", "x=4", "dst=3", "b=4", "len(b) must equal at.Cols"},
			func() { TransMatVecInto(vec(3), at, vec(4), vec(4), false) }},
		{"matvecT dst aliases b", []string{"matvecT", "at=4x3", "x=4", "dst=3", "b=3", "dst must not alias b"},
			func() { buf := vec(3); TransMatVecInto(buf, at, vec(4), buf, false) }},
		{"pairdots dst short", []string{"pairdots", "f=3x4", "dst=2", "scratch=24", "len(dst) must equal 3"},
			func() { PairDotsInto(vec(2), a, vec(24)) }},
		{"pairdots dst long", []string{"pairdots", "f=4x4", "dst=7", "scratch=28", "len(dst) must equal 6"},
			func() { PairDotsInto(vec(7), sq, vec(28)) }},
		{"pairdots scratch short", []string{"pairdots", "f=3x4", "dst=3", "scratch=23", "len(scratch) must be at least 24"},
			func() { PairDotsInto(vec(3), a, vec(23)) }},
		{"transpose dst wrong", []string{"transpose", "a=3x4", "dst=3x4", "must be 4x3"},
			func() { TransposeInto(NewMatrix(3, 4), a) }},
		{"matmulT inner mismatch", []string{"matmulT", "a=3x4", "b=4x5", "inner dimensions"},
			func() { MatMulTransInto(NewMatrix(3, 4), a, RandomMatrix(NewRNG(4), 4, 5, 1)) }},
		{"matmulT dst wrong", []string{"matmulT", "a=3x4", "b=4x4", "dst=3x3", "must be 3x4"},
			func() { MatMulTransInto(NewMatrix(3, 3), a, sq) }},
		{"matmulT dst aliases a", []string{"matmulT", "dst must not alias a"},
			func() { MatMulTransInto(sq, sq, RandomMatrix(NewRNG(5), 4, 4, 1)) }},
		{"qmatvec x wrong", []string{"qmatvec", "a=3x4", "x=3", "len(x) must equal a.Cols"},
			func() { Quantize(a).MatVecInto(make([]float64, 3), make([]int8, 3), 1) }},
		{"qmatvec dst wrong", []string{"qmatvec", "a=3x4", "dst=2", "len(dst) must equal a.Rows"},
			func() { Quantize(a).MatVecInto(make([]float64, 2), make([]int8, 4), 1) }},
		{"quantize vector mismatch", []string{"quantize vector", "xq=3", "x=4"},
			func() { QuantizeVectorInto(make([]int8, 3), make([]float64, 4)) }},
		{"axpyrows dst wrong", []string{"axpyrows", "a=3", "x=3x4", "dst=5", "len(dst) x.Cols"},
			func() { AxpyRows(make([]float64, 5), 1, make([]float64, 3), a) }},
		{"axpyrows coefficients wrong", []string{"axpyrows", "a=4", "x=3x4", "dst=4", "len(a) must equal x.Rows"},
			func() { AxpyRows(make([]float64, 4), 1, make([]float64, 4), a) }},
	}
	for _, tc := range cases {
		mustPanic(t, tc.name, tc.want, tc.f)
	}
}

// matVecRef is the naive scalar matvec: one accumulator per output row,
// columns in order. It is the bit-for-bit ground truth the blocked kernel is
// property-tested against.
func matVecRef(dst []float64, a *Matrix, x []float64) {
	for i := 0; i < a.Rows; i++ {
		s := 0.0
		for j, v := range a.Row(i) {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// kernelShapes are the satellite-3 odd shapes: degenerate vectors, prime
// dimensions straddling the unroll widths, and zero-size edges.
var kernelShapes = []struct{ rows, cols int }{
	{1, 7}, // 1xN
	{7, 1}, // Nx1
	{1, 1},
	{3, 5},   // both below unroll width
	{4, 4},   // exact block
	{5, 4},   // block + remainder row
	{13, 17}, // prime dims
	{31, 29},
	{64, 16}, // bench-profile bottom layer
	{0, 5},   // zero rows
	{5, 0},   // zero cols
	{0, 0},
}

// TestKernelBlockedMatchesReference: the blocked/unrolled kernels must match
// the naive scalar reference bit-for-bit on every shape and seed.
func TestKernelBlockedMatchesReference(t *testing.T) {
	for seed := 0; seed < 5; seed++ {
		rng := NewRNG(uint64(seed))
		for _, sh := range kernelShapes {
			a := RandomMatrix(rng, sh.rows, sh.cols, 1)
			x := make([]float64, sh.cols)
			for i := range x {
				x[i] = rng.NormFloat64()
			}

			want := make([]float64, sh.rows)
			got := make([]float64, sh.rows)
			matVecRef(want, a, x)
			MatVecInto(got, a, x)
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
					t.Fatalf("matvec %dx%d seed %d row %d: blocked %v != ref %v",
						sh.rows, sh.cols, seed, i, got[i], want[i])
				}
			}

			// MatMulTransInto row i must equal MatVecInto(b, a.Row(i)) exactly:
			// batched inference must be bit-identical to per-sample matvecs.
			b := RandomMatrix(rng, 11, sh.cols, 1) // 11 rows: odd, exercises tile remainder
			batch := NewMatrix(sh.rows, 11)
			MatMulTransInto(batch, a, b)
			rowOut := make([]float64, 11)
			for i := 0; i < sh.rows; i++ {
				MatVecInto(rowOut, b, a.Row(i))
				for o, v := range rowOut {
					if math.Float64bits(batch.Row(i)[o]) != math.Float64bits(v) {
						t.Fatalf("matmulT %dx%d seed %d (%d,%d): batched %v != matvec %v",
							sh.rows, sh.cols, seed, i, o, batch.Row(i)[o], v)
					}
				}
			}
		}
	}
}

// forEachPath runs f once per kernel path this CPU can take — the scalar
// loops, then the AVX2 kernels where hasAVX2 — and restores the detected
// path after.
func forEachPath(t *testing.T, f func(t *testing.T)) {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	for _, avx := range []bool{false, true} {
		if avx && !hasAVX2() {
			t.Log("no AVX2 on this CPU: only the scalar path ran")
			continue
		}
		useAVX2 = avx
		t.Run(fmt.Sprintf("avx2=%v", avx), f)
	}
}

// layerShape is a dense layer's W: out rows × in columns.
type layerShape struct{ out, in int }

// profileLayerShapes are the dense layers dlrm.ConfigForProfile builds for
// the five trace profiles: bottom NumDense→64→16, top 16+C(T+1,2)→64→32→1,
// with (NumDense, T) = (8, 6) for avazu and avazu-tb, (13, 8) for criteo and
// criteo-tb and (16, 10) for bd-tb.
var profileLayerShapes = []layerShape{
	{64, 8}, {64, 13}, {64, 16}, {16, 64},
	{64, 37}, {64, 52}, {64, 71}, {32, 64}, {1, 32},
}

// kernelDraw returns a draw of mostly normals with a share of ±0 — the
// values whose sign a misordered lane would flip — and a few tiny and huge
// magnitudes.
func kernelDraw(rng *RNG) float64 {
	switch u := rng.Float64(); {
	case u < 0.15:
		return 0
	case u < 0.2:
		return math.Copysign(0, -1)
	case u < 0.22:
		return 1e-300 * rng.NormFloat64()
	case u < 0.24:
		return 1e300 * rng.NormFloat64()
	default:
		return rng.NormFloat64()
	}
}

// sameBitsAt reports the first index where got and want differ in bits, or
// -1.
func sameBitsAt(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// transMatVecRef is TransMatVecInto's scalar ground truth: matVecRef on the
// untransposed matrix, then the bias, then ReLU by the sign-bit rule (a value
// whose bits are not a positive int64 becomes +0).
func transMatVecRef(dst []float64, w *Matrix, x, b []float64, relu bool) {
	matVecRef(dst, w, x)
	for o := range dst {
		dst[o] += b[o]
		if relu && int64(math.Float64bits(dst[o])) <= 0 {
			dst[o] = 0
		}
	}
}

// specialDraw is kernelDraw with a share of infinities and subnormals: the
// values that make a sum −NaN (∞ − ∞, 0·∞) or a bias add round at the
// bottom of the range.
func specialDraw(rng *RNG) float64 {
	switch u := rng.Float64(); {
	case u < 0.03:
		return math.Inf(1)
	case u < 0.06:
		return math.Inf(-1)
	case u < 0.09:
		return math.SmallestNonzeroFloat64 * float64(1+rng.Intn(8))
	case u < 0.12:
		return -0x1p-1060
	default:
		return kernelDraw(rng)
	}
}

// finiteDraw is kernelDraw without the huge magnitudes, whose products can
// overflow to ±∞, plus subnormals.
func finiteDraw(rng *RNG) float64 {
	if rng.Float64() < 0.05 {
		return -math.SmallestNonzeroFloat64 * float64(1+rng.Intn(8))
	}
	v := kernelDraw(rng)
	if math.Abs(v) > 1e100 {
		return rng.NormFloat64()
	}
	return v
}

// TestKernelTransMatVecMatchesReference: on both dispatch paths,
// TransMatVecInto on a matrix's transpose, with its bias and with and
// without ReLU, gives transMatVecRef's bits on every profile layer shape and
// on random shapes with K, O ∈ 0…70, so the 16-wide, 4-wide and
// one-at-a-time output blocks, in = 0 and out = 1 all run.
//
// Half the draws hold ±0, ±∞ and subnormals, so sums of ∞ − ∞ reach the
// epilogue as −NaN and ReLU must clear them. The other half hold one NaN of
// either sign, in x or in the bias, and no infinities, so +NaN must survive
// the ReLU. No product or sum ever meets two NaNs of different bits: which
// one IEEE 754 arithmetic returns then is the operand order, which the Go
// compiler is free to swap.
func TestKernelTransMatVecMatchesReference(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		rng := NewRNG(41)
		shapes := append([]layerShape{{1, 0}, {0, 7}, {70, 70}, {21, 1}}, profileLayerShapes...)
		for i := 0; i < 300; i++ {
			shapes = append(shapes, layerShape{rng.Intn(71), rng.Intn(71)})
		}
		for c, sh := range shapes {
			draw := specialDraw
			withNaN := c%2 == 1
			if withNaN {
				draw = finiteDraw
			}
			w := NewMatrix(sh.out, sh.in)
			for i := range w.Data {
				w.Data[i] = draw(rng)
			}
			x, b := make([]float64, sh.in), make([]float64, sh.out)
			for i := range x {
				x[i] = draw(rng)
			}
			for i := range b {
				b[i] = draw(rng)
			}
			nan := math.NaN()
			if rng.Intn(2) == 0 {
				nan = math.Copysign(nan, -1)
			}
			switch {
			case !withNaN:
			case len(x) > 0 && rng.Intn(2) == 0:
				x[rng.Intn(len(x))] = nan
			case len(b) > 0:
				b[rng.Intn(len(b))] = nan
			}
			wt := NewMatrix(sh.in, sh.out)
			TransposeInto(wt, w)
			for _, relu := range []bool{false, true} {
				want, got := make([]float64, sh.out), make([]float64, sh.out)
				for i := range got {
					got[i] = math.NaN() // every output must be overwritten
				}
				transMatVecRef(want, w, x, b, relu)
				TransMatVecInto(got, wt, x, b, relu)
				if i := sameBitsAt(got, want); i >= 0 {
					t.Fatalf("%dx%d relu=%v: dst[%d] = %v (%#x), reference %v (%#x)", sh.out, sh.in, relu,
						i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	})
}

// pairDotsRef is the interaction's scalar ground truth: Dot over each pair
// i < j of f's rows, row by row of the upper triangle.
func pairDotsRef(f *Matrix) []float64 {
	var out []float64
	for i := 0; i < f.Rows; i++ {
		for j := i + 1; j < f.Rows; j++ {
			out = append(out, Dot(f.Row(i), f.Row(j)))
		}
	}
	return out
}

// TestKernelPairDotsMatchesDot: on both dispatch paths, PairDotsInto gives
// the Dot pair walk's bits for n ∈ 0…20 rows (n = 0 and 1 have no pairs;
// n > 17 takes more than 16 partners in a row) and d ∈ 0…40 columns, over
// features with ±0, ±∞ and subnormals. It writes nothing outside dst or
// outside scratch's first d·(n+3) elements, and scratch's prior contents
// (NaN and subnormal garbage) do not reach dst.
func TestKernelPairDotsMatchesDot(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		rng := NewRNG(47)
		const guard = 5
		for n := 0; n <= 20; n++ {
			for d := 0; d <= 40; d++ {
				f := NewMatrix(n, d)
				for i := range f.Data {
					f.Data[i] = specialDraw(rng)
				}
				want := pairDotsRef(f)
				pairs, need := n*(n-1)/2, d*(n+3)
				dstBuf, scratchBuf := make([]float64, pairs+2*guard), make([]float64, need+guard)
				for i := range dstBuf {
					dstBuf[i] = math.NaN()
				}
				for i := range scratchBuf {
					scratchBuf[i] = []float64{math.NaN(), math.SmallestNonzeroFloat64, math.Inf(-1)}[i%3]
				}
				sentinel := append([]float64(nil), scratchBuf[need:]...)
				got := dstBuf[guard : guard+pairs]
				PairDotsInto(got, f, scratchBuf[:need])
				if i := sameBitsAt(got, want); i >= 0 {
					t.Fatalf("n=%d d=%d: pair %d = %v (%#x), Dot walk %v (%#x)", n, d,
						i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
				for i, v := range append(dstBuf[:guard:guard], dstBuf[guard+pairs:]...) {
					if !math.IsNaN(v) {
						t.Fatalf("n=%d d=%d: guard %d around dst overwritten with %v", n, d, i, v)
					}
				}
				if i := sameBitsAt(scratchBuf[need:], sentinel); i >= 0 {
					t.Fatalf("n=%d d=%d: scratch written %d past its d·(n+3) = %d elements", n, d, i, need)
				}
			}
		}
	})
}

// benchEachPath runs f as a sub-benchmark once per kernel path this CPU can
// take, like forEachPath.
func benchEachPath(b *testing.B, f func(b *testing.B)) {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	for _, avx := range []bool{false, true} {
		if avx && !hasAVX2() {
			continue
		}
		useAVX2 = avx
		b.Run(fmt.Sprintf("avx2=%v", avx), func(b *testing.B) {
			b.ReportAllocs()
			f(b)
		})
	}
}

// BenchmarkPairDots times the criteo interaction (9 features of 16) on each
// dispatch path; the scalar one is the Dot pair walk.
func BenchmarkPairDots(b *testing.B) {
	f := RandomMatrix(NewRNG(1), 9, 16, 1)
	dst, scratch := make([]float64, 36), make([]float64, 16*12)
	benchEachPath(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			PairDotsInto(dst, f, scratch)
		}
	})
}

// momentsRef is Moments.Of's scalar ground truth: each column's mean summed
// from +0 in row order, then divided by the row count (unless it is 0), and
// each upper cell of the scatter summed from +0 over the rows in order, the
// centred p factor times the centred q factor.
func momentsRef(a *Matrix) (mean, m2 []float64) {
	n := a.Cols
	mean, m2 = make([]float64, n), make([]float64, n*n)
	for i := 0; i < a.Rows; i++ {
		for j, v := range a.Row(i) {
			mean[j] += v
		}
	}
	if a.Rows > 0 {
		for j := range mean {
			mean[j] /= float64(a.Rows)
		}
	}
	for p := 0; p < n; p++ {
		for q := p; q < n; q++ {
			s := 0.0
			for i := 0; i < a.Rows; i++ {
				row := a.Row(i)
				s += (row[p] - mean[p]) * (row[q] - mean[q])
			}
			m2[p*n+q] = s
		}
	}
	return mean, m2
}

// mergeRef is Moments.Merge's scalar ground truth for two non-empty sets,
// folding (nb, omean, om2) into (na, mean, m2) in place on the upper
// triangle.
func mergeRef(na int, mean, m2 []float64, nb int, omean, om2 []float64) {
	d := len(mean)
	n := float64(na) + float64(nb)
	f, g := float64(na)*float64(nb)/n, float64(nb)/n
	for p := 0; p < d; p++ {
		dp := (omean[p] - mean[p]) * f
		for q := p; q < d; q++ {
			m2[p*d+q] += om2[p*d+q] + dp*(omean[q]-mean[q])
		}
	}
	for j := range mean {
		mean[j] += (omean[j] - mean[j]) * g
	}
}

// infinity is +∞ read at run time, so infinity − infinity is the
// hardware's default NaN, not one the compiler folded.
var infinity = math.Inf(1)

// momentsDraw returns a rows×n matrix for the moments kernels holding one
// NaN (when it has a cell). With special set, the draws hold ±0, ±∞,
// subnormals and huge magnitudes, whose sums and products make ∞ − ∞ and
// 0·∞, and the NaN has the default NaN's bits, which those give; otherwise
// the draws are finite and the NaN is +NaN or −NaN. Either way every NaN in
// the case has one bit pattern, so no operation meets two that differ.
func momentsDraw(rng *RNG, rows, n int, special bool) *Matrix {
	a := NewMatrix(rows, n)
	draw, nan := finiteDraw, math.NaN()
	if special {
		draw, nan = specialDraw, infinity-infinity
	} else if rng.Intn(2) == 0 {
		nan = math.Copysign(nan, -1)
	}
	for i := range a.Data {
		a.Data[i] = draw(rng)
	}
	if len(a.Data) > 0 {
		a.Data[rng.Intn(len(a.Data))] = nan
	}
	return a
}

// momentsGuard is the number of sentinel cells guardedMoments puts before
// Mean, between Mean and M2, and after M2.
const momentsGuard = 3

// guardedMoments returns d-dimensional moments whose Mean and M2 sit in buf
// between guard cells, every cell of buf holding sentinel's bits.
func guardedMoments(d int, sentinel float64) (m Moments, buf []float64) {
	const g = momentsGuard
	buf = make([]float64, 3*g+d+d*d)
	for i := range buf {
		buf[i] = sentinel
	}
	return Moments{Mean: buf[g : g+d : g+d], M2: buf[2*g+d : 2*g+d+d*d : 2*g+d+d*d]}, buf
}

// checkMoments fails t unless m holds n rows with the reference mean's bits
// and the reference scatter's bits on the upper triangle, and buf (m's
// guarded buffer) still holds sentinel in every guard cell and in M2's
// strict lower triangle outside the diagonal 4×4 blocks.
func checkMoments(t *testing.T, what string, m *Moments, n int, mean, m2, buf []float64, sentinel float64) {
	t.Helper()
	d, g := len(mean), momentsGuard
	if m.N != n {
		t.Fatalf("%s: N = %d, want %d", what, m.N, n)
	}
	if j := sameBitsAt(m.Mean, mean); j >= 0 {
		t.Fatalf("%s: mean[%d] = %v (%#x), reference %v (%#x)", what, j,
			m.Mean[j], math.Float64bits(m.Mean[j]), mean[j], math.Float64bits(mean[j]))
	}
	for p := 0; p < d; p++ {
		for q := 0; q < d; q++ {
			got, want := m.M2[p*d+q], m2[p*d+q]
			switch {
			case q >= p:
			case p/4 == q/4:
				continue
			default:
				want = sentinel
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: M2[%d][%d] = %v (%#x), want %v (%#x)", what, p, q,
					got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	guards := append(append(buf[:g:g], buf[g+d:2*g+d]...), buf[2*g+d+d*d:]...)
	for i, v := range guards {
		if math.Float64bits(v) != math.Float64bits(sentinel) {
			t.Fatalf("%s: guard cell %d around Mean and M2 overwritten with %v", what, i, v)
		}
	}
}

// TestKernelMomentsMatchesScalar: on both dispatch paths, Moments.Of gives
// momentsRef's bits (mean, and the scatter's upper triangle) for n ∈ 0…40
// columns, so the 16-, 4- and 1-wide column blocks and an odd last row of
// the scatter all run, and rows ∈ 0…70; and Merge of two such sets (the rows
// cut at a random point) gives mergeRef's bits. Of writes no strict lower
// cell outside the diagonal 4×4 blocks, Merge none at all, and neither
// anything outside Mean and M2. Merging into empty moments copies, and
// merging empty ones changes nothing. Half the cases hold ±0, ±∞,
// subnormals and huge magnitudes, the other half finite draws; each holds
// one NaN (see momentsDraw).
func TestKernelMomentsMatchesScalar(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		rng := NewRNG(53)
		sentinel := math.Float64frombits(0x7ff4_0000_dead_beef)
		for n := 0; n <= 40; n++ {
			for rows := 0; rows <= 70; rows++ {
				a := momentsDraw(rng, rows, n, (n+rows)%2 == 0)
				shape := fmt.Sprintf("n=%d rows=%d", n, rows)
				mean, m2 := momentsRef(a)
				m, mbuf := guardedMoments(n, sentinel)
				m.Of(a)
				checkMoments(t, shape+": Of", &m, rows, mean, m2, mbuf, sentinel)

				cut := rng.Intn(rows + 1)
				top := &Matrix{Rows: cut, Cols: n, Data: a.Data[:cut*n]}
				bottom := &Matrix{Rows: rows - cut, Cols: n, Data: a.Data[cut*n:]}
				wantMean, wantM2 := momentsRef(top)
				bMean, bM2 := momentsRef(bottom)
				switch {
				case cut == 0:
					wantMean, wantM2 = bMean, bM2
				case cut < rows:
					mergeRef(cut, wantMean, wantM2, rows-cut, bMean, bM2)
				}
				mt, tbuf := guardedMoments(n, sentinel)
				mt.Of(top)
				mb, _ := guardedMoments(n, sentinel)
				mb.Of(bottom)
				lower := append([]float64(nil), mt.M2...)
				mt.Merge(&mb)
				what := fmt.Sprintf("%s cut=%d: Merge", shape, cut)
				checkMoments(t, what, &mt, rows, wantMean, wantM2, tbuf, sentinel)
				for p := 0; cut > 0 && p < n; p++ {
					for q := 0; q < p; q++ {
						if math.Float64bits(mt.M2[p*n+q]) != math.Float64bits(lower[p*n+q]) {
							t.Fatalf("%s: strict lower M2[%d][%d] written", what, p, q)
						}
					}
				}

				if rows > 0 {
					empty, ebuf := guardedMoments(n, sentinel)
					empty.Merge(&m)
					checkMoments(t, shape+": Merge into empty", &empty, rows, mean, m2, ebuf, sentinel)
					if sameBitsAt(empty.M2, m.M2) >= 0 {
						t.Fatalf("%s: Merge into empty: M2 is not a copy", shape)
					}
				}
				none, _ := guardedMoments(n, sentinel)
				m.Merge(&none)
				checkMoments(t, shape+": Merge of empty", &m, rows, mean, m2, mbuf, sentinel)
			}
		}
	})
}

// BenchmarkMomentsOf times one 32-row gradient block's moments at d = 16
// on each dispatch path.
func BenchmarkMomentsOf(b *testing.B) {
	a := RandomMatrix(NewRNG(1), 32, 16, 1)
	m := MakeMoments(1, 16)[0]
	benchEachPath(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Of(a)
		}
	})
}

// BenchmarkMomentsMerge times folding one 32-row block's moments into a
// window's at d = 16 on each dispatch path.
func BenchmarkMomentsMerge(b *testing.B) {
	ms := MakeMoments(2, 16)
	ms[1].Of(RandomMatrix(NewRNG(1), 32, 16, 1))
	benchEachPath(b, func(b *testing.B) {
		ms[0].Of(RandomMatrix(NewRNG(2), 32, 16, 1))
		for i := 0; i < b.N; i++ {
			ms[0].Merge(&ms[1])
		}
	})
}

// TestKernelAxpyMatchesScalar: on both dispatch paths, axpy1, axpy2, axpy4
// and Axpy give the scalar loops' bits at every length 0…70.
func TestKernelAxpyMatchesScalar(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		rng := NewRNG(43)
		vec := func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = kernelDraw(rng)
			}
			return v
		}
		for n := 0; n <= 70; n++ {
			for trial := 0; trial < 4; trial++ {
				dst := vec(n)
				var c [4]float64
				var x [4][]float64
				for k := range c {
					c[k], x[k] = kernelDraw(rng), vec(n)
				}
				for _, terms := range []int{1, 2, 4} {
					want := append([]float64(nil), dst...)
					for i := range want {
						for k := 0; k < terms; k++ {
							want[i] += c[k] * x[k][i]
						}
					}
					got := append([]float64(nil), dst...)
					switch terms {
					case 1:
						axpy1(got, c[0], x[0])
					case 2:
						axpy2(got, c[0], c[1], x[0], x[1])
					case 4:
						axpy4(got, c[0], c[1], c[2], c[3], x[0], x[1], x[2], x[3])
					}
					if i := sameBitsAt(got, want); i >= 0 {
						t.Fatalf("axpy%d n=%d: dst[%d] = %v, scalar loop %v", terms, n, i, got[i], want[i])
					}
					if terms == 1 {
						got = append(got[:0], dst...)
						Axpy(c[0], x[0], got)
						if i := sameBitsAt(got, want); i >= 0 {
							t.Fatalf("Axpy n=%d: y[%d] = %v, scalar loop %v", n, i, got[i], want[i])
						}
					}
				}
			}
		}
	})
}

// TestKernelQuantizedWithinTolerance: the int8 path must track the float
// reference within the combined row/activation quantization error bound.
func TestKernelQuantizedWithinTolerance(t *testing.T) {
	for seed := 0; seed < 5; seed++ {
		rng := NewRNG(uint64(100 + seed))
		for _, sh := range kernelShapes {
			a := RandomMatrix(rng, sh.rows, sh.cols, 1)
			x := make([]float64, sh.cols)
			xAbs := 0.0
			for i := range x {
				x[i] = rng.NormFloat64()
				if v := math.Abs(x[i]); v > xAbs {
					xAbs = v
				}
			}

			q := Quantize(a)
			xq := make([]int8, sh.cols)
			sx := QuantizeVectorInto(xq, x)

			want := make([]float64, sh.rows)
			got := make([]float64, sh.rows)
			matVecRef(want, a, x)
			q.MatVecInto(got, xq, sx)

			for i := range want {
				// Each term carries at most scale/2 error from the weight and
				// sx/2 from the activation (plus their product); bound the row
				// error by n * (sw*xmax + sx*wmax + sw*sx) / 2-ish with slack.
				wmax := q.Scale[i] * 127
				bound := float64(sh.cols)*(q.Scale[i]*xAbs+sx*wmax+q.Scale[i]*sx) + 1e-12
				if diff := math.Abs(want[i] - got[i]); diff > bound {
					t.Fatalf("qmatvec %dx%d seed %d row %d: |%v - %v| = %v > bound %v",
						sh.rows, sh.cols, seed, i, got[i], want[i], diff, bound)
				}
			}
		}
	}
}

// TestQuantizeRoundTrip: quantization error per element is at most half a
// quantization step, and zero rows/vectors quantize exactly.
func TestQuantizeRoundTrip(t *testing.T) {
	rng := NewRNG(7)
	m := RandomMatrix(rng, 9, 13, 1)
	for j := 0; j < m.Cols; j++ { // zero out one row entirely
		m.Row(4)[j] = 0
	}
	q := Quantize(m)
	if q.Scale[4] != 0 {
		t.Fatalf("zero row scale = %v, want 0", q.Scale[4])
	}
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			back := float64(q.Data[i*q.Cols+j]) * q.Scale[i]
			if diff := math.Abs(v - back); diff > q.Scale[i]/2+1e-15 {
				t.Fatalf("round trip (%d,%d): |%v - %v| > scale/2 = %v", i, j, v, back, q.Scale[i]/2)
			}
		}
	}

	zero := make([]float64, 8)
	zq := make([]int8, 8)
	if s := QuantizeVectorInto(zq, zero); s != 0 {
		t.Fatalf("zero vector scale = %v, want 0", s)
	}
	for _, v := range zq {
		if v != 0 {
			t.Fatalf("zero vector quantized to %v", zq)
		}
	}
}

// TestTruncateF16 checks the mantissa-truncation semantics: exactly
// representable halves survive, low mantissa bits are dropped, and the
// matrix helper applies it elementwise without touching the input.
func TestTruncateF16(t *testing.T) {
	for _, v := range []float64{0, 1, -1, 0.5, 2048, -3.25} {
		if got := TruncateF16(v); got != v {
			t.Fatalf("TruncateF16(%v) = %v, want unchanged", v, got)
		}
	}
	v := 1.0 + 1.0/2048 // needs 11 mantissa bits: must truncate back to 1
	if got := TruncateF16(v); got != 1.0 {
		t.Fatalf("TruncateF16(%v) = %v, want 1", v, got)
	}
	if got := TruncateF16(math.Pi); got == math.Pi || math.Abs(got-math.Pi) > 1e-3 {
		t.Fatalf("TruncateF16(pi) = %v", got)
	}

	rng := NewRNG(11)
	m := RandomMatrix(rng, 5, 5, 1)
	orig := append([]float64(nil), m.Data...)
	tm := TruncateF16Matrix(m)
	for i, v := range m.Data {
		if v != orig[i] {
			t.Fatal("TruncateF16Matrix mutated its input")
		}
		if tm.Data[i] != TruncateF16(v) {
			t.Fatalf("elem %d: %v != TruncateF16(%v)", i, tm.Data[i], v)
		}
	}
}

// axpyRowsRef is what AxpyRows replaced at its call sites: one Axpy per
// non-zero coefficient, in row order.
func axpyRowsRef(dst []float64, alpha float64, a []float64, x *Matrix) {
	for k, ak := range a {
		if ak != 0 {
			Axpy(alpha*ak, x.Row(k), dst)
		}
	}
}

// TestKernelAxpyRowsMatchesAxpy: the four-terms-per-pass kernel against the
// sequential Axpy loop, bit for bit on both dispatch paths, over every
// length 0…67 and row count 0…17, with coefficients and operands drawn from
// normals, zeros of both signs, subnormals and infinities, at several
// densities and scales.
func TestKernelAxpyRowsMatchesAxpy(t *testing.T) {
	forEachPath(t, testAxpyRowsMatchesAxpy)
}

func testAxpyRowsMatchesAxpy(t *testing.T) {
	rng := NewRNG(21)
	special := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, 0x1p-1060, 1e-300, math.Inf(1), 1, -1}
	draw := func(zeroShare float64) float64 {
		switch u := rng.Float64(); {
		case u < zeroShare:
			return 0
		case u < zeroShare+0.15:
			return special[rng.Intn(len(special))]
		default:
			return rng.NormFloat64()
		}
	}
	for n := 0; n <= 67; n++ {
		for k := 0; k <= 17; k++ {
			for _, zeroShare := range []float64{0, 0.5, 0.9} {
				x := NewMatrix(k, n)
				for i := range x.Data {
					x.Data[i] = draw(0.05)
				}
				a := make([]float64, k)
				for i := range a {
					a[i] = draw(zeroShare)
				}
				want, got := make([]float64, n), make([]float64, n)
				for i := range want {
					want[i] = draw(0.2)
					got[i] = want[i]
				}
				for _, alpha := range []float64{1, -0.375, 1e-310} {
					axpyRowsRef(want, alpha, a, x)
					AxpyRows(got, alpha, a, x)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) &&
							!(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
							t.Fatalf("n=%d k=%d zero share %v alpha %v: dst[%d] = %v, sequential Axpy gave %v",
								n, k, zeroShare, alpha, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// inputGradOperands is the top MLP's first layer (64 outputs × 52 inputs)
// and 256 output gradients with a random half of each masked off by the
// ReLU: the shapes the train tick's input-gradient pass sees, in patterns a
// branch predictor cannot learn.
func inputGradOperands() (dst []float64, dPre [][]float64, w *Matrix) {
	rng := NewRNG(3)
	w = RandomMatrix(rng, 64, 52, 1)
	dPre = make([][]float64, 256)
	for j := range dPre {
		dPre[j] = make([]float64, 64)
		for i := range dPre[j] {
			if rng.Float64() < 0.5 {
				dPre[j][i] = rng.NormFloat64()
			}
		}
	}
	return make([]float64, 52), dPre, w
}

func BenchmarkAxpyRows(b *testing.B) {
	dst, dPre, w := inputGradOperands()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clear(dst)
		AxpyRows(dst, 1, dPre[i%len(dPre)], w)
	}
}

func BenchmarkAxpyRowsSequential(b *testing.B) {
	dst, dPre, w := inputGradOperands()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clear(dst)
		axpyRowsRef(dst, 1, dPre[i%len(dPre)], w)
	}
}

func BenchmarkMatVecScalar(b *testing.B) {
	rng := NewRNG(1)
	a := RandomMatrix(rng, 64, 64, 1)
	x := make([]float64, 64)
	dst := make([]float64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matVecRef(dst, a, x)
	}
}

func BenchmarkMatVecBlocked(b *testing.B) {
	rng := NewRNG(1)
	a := RandomMatrix(rng, 64, 64, 1)
	x := make([]float64, 64)
	dst := make([]float64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatVecInto(dst, a, x)
	}
}

// BenchmarkTransMatVec times the forward kernel, bias and ReLU included, at
// the criteo top MLP's first layer (64 outputs × 52 inputs) on the detected
// path.
func BenchmarkTransMatVec(b *testing.B) {
	rng := NewRNG(1)
	w := RandomMatrix(rng, 64, 52, 1)
	wt := NewMatrix(52, 64)
	TransposeInto(wt, w)
	x := make([]float64, 52)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	dst, bias := make([]float64, 64), make([]float64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TransMatVecInto(dst, wt, x, bias, true)
	}
}

func BenchmarkMatVecQuantized(b *testing.B) {
	rng := NewRNG(1)
	a := RandomMatrix(rng, 64, 64, 1)
	x := make([]float64, 64)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	q := Quantize(a)
	xq := make([]int8, 64)
	dst := make([]float64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sx := QuantizeVectorInto(xq, x)
		q.MatVecInto(dst, xq, sx)
	}
}

func BenchmarkMatMulTransBatch16(b *testing.B) {
	rng := NewRNG(1)
	w := RandomMatrix(rng, 64, 64, 1)
	x := RandomMatrix(rng, 16, 64, 1)
	dst := NewMatrix(16, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransInto(dst, x, w)
	}
}

// TestKernelReLUMatchesBranchy: the branch-free activation kernels against
// the branching loops they replaced, bit for bit, on random, all-negative,
// all-positive and edge inputs (±0, ±Inf, the smallest subnormals). The one
// deliberate difference: ReLUInPlace used to leave -0.0 alone (its test was
// v < 0) while Layer.Forward wrote +0.0 (its test was v > 0); both now go
// through reluInto and give +0.0, so a served and a trained forward pass see
// the same activations.
func TestKernelReLUMatchesBranchy(t *testing.T) {
	forwardOld := func(v float64) float64 { // Layer.Forward
		if v > 0 {
			return v
		}
		return 0
	}
	inPlaceOld := func(v float64) float64 { // ReLUInPlace
		if v < 0 {
			return 0
		}
		return v
	}
	maskOld := func(g, pre float64) float64 { // Layer.preGrad
		if pre > 0 {
			return g
		}
		return 0
	}
	rng := NewRNG(11)
	edge := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 1, -1}
	inputs := map[string][]float64{"edge": edge}
	for _, n := range []int{0, 1, 7, 64, 257} {
		random, negative, positive := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range random {
			random[i] = rng.NormFloat64()
			negative[i] = -math.Abs(rng.NormFloat64())
			positive[i] = math.Abs(rng.NormFloat64())
		}
		inputs[fmt.Sprintf("random/%d", n)] = random
		inputs[fmt.Sprintf("negative/%d", n)] = negative
		inputs[fmt.Sprintf("positive/%d", n)] = positive
	}
	for name, pre := range inputs {
		out := make([]float64, len(pre))
		reluInto(out, pre)
		inPlace := append([]float64(nil), pre...)
		ReLUInPlace(inPlace)
		grad := make([]float64, len(pre))
		for i := range grad {
			grad[i] = edge[i%len(edge)] // every gradient edge value meets both mask outcomes
			if i >= len(edge) {
				grad[i] = rng.NormFloat64()
			}
		}
		masked := make([]float64, len(pre))
		ReLUMaskInto(masked, grad, pre)
		for i, v := range pre {
			if want := forwardOld(v); math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Fatalf("%s[%d]: reluInto(%v) = %v, branching Forward gave %v", name, i, v, out[i], want)
			}
			want := inPlaceOld(v)
			if inPlace[i] != want || (math.Float64bits(inPlace[i]) != math.Float64bits(want) && math.Float64bits(v) != 1<<63) {
				t.Fatalf("%s[%d]: ReLUInPlace(%v) = %v, branching loop gave %v", name, i, v, inPlace[i], want)
			}
			if math.Float64bits(inPlace[i]) != math.Float64bits(out[i]) {
				t.Fatalf("%s[%d]: ReLUInPlace(%v) = %v but reluInto gives %v", name, i, v, inPlace[i], out[i])
			}
			if want := maskOld(grad[i], v); math.Float64bits(masked[i]) != math.Float64bits(want) {
				t.Fatalf("%s[%d]: ReLUMaskInto(grad %v, pre %v) = %v, branching preGrad gave %v", name, i, grad[i], v, masked[i], want)
			}
		}
	}
}
