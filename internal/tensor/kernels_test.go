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

// TestKernelGuards is the satellite-2 table: every shape-mismatch path of the
// matvec/matmul kernels must panic with both operand shapes in the message,
// and dst aliasing x must be rejected.
func TestKernelGuards(t *testing.T) {
	a := RandomMatrix(NewRNG(1), 3, 4, 1)
	sq := RandomMatrix(NewRNG(2), 4, 4, 1)

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
		{"matvec ref x wrong", []string{"matvec", "a=3x4", "x=5"},
			func() { MatVecRefInto(make([]float64, 3), a, make([]float64, 5)) }},
		{"matvec ref dst wrong", []string{"matvec", "a=3x4", "dst=4"},
			func() { MatVecRefInto(make([]float64, 4), a, make([]float64, 4)) }},
		{"matvec dst aliases x", []string{"matvec", "a=4x4", "dst must not alias x"},
			func() { buf := make([]float64, 4); MatVecInto(buf, sq, buf) }},
		{"matvec ref dst aliases x", []string{"matvec", "dst must not alias x"},
			func() { buf := make([]float64, 4); MatVecRefInto(buf, sq, buf) }},
		{"matvec via shim", []string{"matvec", "a=3x4", "x=2"},
			func() { MatVec(a, make([]float64, 2)) }},
		{"matmul inner mismatch", []string{"matmul", "a=3x4", "b=3x4", "inner dimensions"},
			func() { MatMulInto(NewMatrix(3, 4), a, a) }},
		{"matmul dst wrong", []string{"matmul", "a=3x4", "b=4x4", "dst=3x3", "must be 3x4"},
			func() { MatMulInto(NewMatrix(3, 3), a, sq) }},
		{"matmul dst aliases a", []string{"matmul", "dst must not alias a"},
			func() { MatMulInto(sq, sq, sq) }},
		{"matmul dst aliases b", []string{"matmul", "dst must not alias b"},
			func() { MatMulInto(sq, RandomMatrix(NewRNG(3), 4, 4, 1), sq) }},
		{"matmul via shim", []string{"matmul", "a=3x4", "b=3x4", "inner dimensions"},
			func() { MatMul(a, a) }},
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
			MatVecRefInto(want, a, x)
			MatVecInto(got, a, x)
			for i := range want {
				if want[i] != got[i] {
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
					if batch.Row(i)[o] != v {
						t.Fatalf("matmulT %dx%d seed %d (%d,%d): batched %v != matvec %v",
							sh.rows, sh.cols, seed, i, o, batch.Row(i)[o], v)
					}
				}
			}

			// MatMulInto vs a scalar ikj reference with the same accumulation order.
			c := RandomMatrix(rng, sh.cols, 9, 1)
			ref := NewMatrix(sh.rows, 9)
			for i := 0; i < sh.rows; i++ {
				arow := a.Row(i)
				crow := ref.Row(i)
				for k, av := range arow {
					brow := c.Row(k)
					for j, bv := range brow {
						crow[j] += av * bv
					}
				}
			}
			mm := NewMatrix(sh.rows, 9)
			MatMulInto(mm, a, c)
			for i, v := range ref.Data {
				if mm.Data[i] != v {
					t.Fatalf("matmul %dx%d seed %d elem %d: unrolled %v != ref %v",
						sh.rows, sh.cols, seed, i, mm.Data[i], v)
				}
			}
		}
	}
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
			MatVecRefInto(want, a, x)
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
			back := float64(q.Row(i)[j]) * q.Scale[i]
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
// sequential Axpy loop, bit for bit, over every length 0…67 and row count
// 0…17, with coefficients and operands drawn from normals, zeros of both
// signs, subnormals and infinities, at several densities and scales.
func TestKernelAxpyRowsMatchesAxpy(t *testing.T) {
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
		MatVecRefInto(dst, a, x)
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
// through ReLUInto and give +0.0, so a served and a trained forward pass see
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
		ReLUInto(out, pre)
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
				t.Fatalf("%s[%d]: ReLUInto(%v) = %v, branching Forward gave %v", name, i, v, out[i], want)
			}
			want := inPlaceOld(v)
			if inPlace[i] != want || (math.Float64bits(inPlace[i]) != math.Float64bits(want) && math.Float64bits(v) != 1<<63) {
				t.Fatalf("%s[%d]: ReLUInPlace(%v) = %v, branching loop gave %v", name, i, v, inPlace[i], want)
			}
			if math.Float64bits(inPlace[i]) != math.Float64bits(out[i]) {
				t.Fatalf("%s[%d]: ReLUInPlace(%v) = %v but ReLUInto gives %v", name, i, v, inPlace[i], out[i])
			}
			if want := maskOld(grad[i], v); math.Float64bits(masked[i]) != math.Float64bits(want) {
				t.Fatalf("%s[%d]: ReLUMaskInto(grad %v, pre %v) = %v, branching preGrad gave %v", name, i, grad[i], v, masked[i], want)
			}
		}
	}
}
