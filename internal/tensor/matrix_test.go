package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// matMul is the scalar ikj product a × b, for tests that need a reference
// product or build structured inputs.
func matMul(a, b *Matrix) *Matrix {
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		crow := c.Row(i)
		for k, av := range a.Row(i) {
			for j, bv := range b.Row(k) {
				crow[j] += av * bv
			}
		}
	}
	return c
}

// transpose returns mᵀ as a new matrix.
func transpose(m *Matrix) *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	TransposeInto(t, m)
	return t
}

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("unexpected shape %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("new matrix not zeroed")
		}
	}
}

func TestAtSetRow(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Data[1*3+2] = 7.5
	row := m.Row(1)
	if row[2] != 7.5 {
		t.Fatalf("Row(1)[2] = %v, want 7.5", row[2])
	}
	row[0] = 3 // aliasing
	if m.Data[1*3+0] != 3 {
		t.Fatal("Row must alias matrix storage")
	}
}

// The matmul tests drive MatMulTransInto, the one GEMM kernel: a × bᵀ for
// row-major a and b.
func TestMatMulKnown(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	bT := &Matrix{Rows: 2, Cols: 3, Data: []float64{7, 9, 11, 8, 10, 12}}
	c := NewMatrix(2, 2)
	MatMulTransInto(c, a, bT)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("c.Data[%d] = %v, want %v", i, c.Data[i], v)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := NewRNG(1)
	a := RandomMatrix(rng, 5, 5, 1)
	id := NewMatrix(5, 5)
	for i := 0; i < 5; i++ {
		id.Row(i)[i] = 1
	}
	c := NewMatrix(5, 5)
	MatMulTransInto(c, a, id)
	for i := range a.Data {
		if c.Data[i] != a.Data[i] {
			t.Fatalf("A*I != A at %d: %v vs %v", i, c.Data[i], a.Data[i])
		}
	}
}

func TestMatMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	MatMulTransInto(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(2, 2))
}

func TestMatVecInto(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 3, Data: []float64{1, 0, 2, 0, 3, 0}}
	dst := []float64{99, 99} // stale values must be overwritten, not accumulated
	MatVecInto(dst, a, []float64{1, 2, 3})
	if dst[0] != 7 || dst[1] != 6 {
		t.Fatalf("MatVecInto = %v, want [7 6]", dst)
	}
	x := []float64{1, 2, 3}
	if n := testing.AllocsPerRun(100, func() {
		MatVecInto(dst, a, x)
	}); n != 0 {
		t.Fatalf("MatVecInto allocates %v per run, want 0", n)
	}
}

func TestMatVecIntoPanics(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 3, Data: []float64{1, 0, 2, 0, 3, 0}}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("bad x", func() { MatVecInto(make([]float64, 2), a, []float64{1, 2}) })
	mustPanic("bad dst", func() { MatVecInto(make([]float64, 3), a, []float64{1, 2, 3}) })
}

func TestReLUInPlace(t *testing.T) {
	x := []float64{-1, 0, 2.5, -0.001, 7}
	ReLUInPlace(x)
	want := []float64{0, 0, 2.5, 0, 7}
	for i := range x {
		if x[i] != want[i] {
			t.Fatalf("ReLUInPlace = %v, want %v", x, want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	a := &Matrix{Rows: 1, Cols: 2, Data: []float64{1, 2}}
	c := a.Clone()
	c.Data[0] = 99
	if a.Data[0] != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestDotAndNorm(t *testing.T) {
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Fatal("Dot wrong")
	}
	if !almostEqual(Norm2([]float64{3, 4}), 5, 1e-15) {
		t.Fatal("Norm2 wrong")
	}
}

func TestXavierMatrixBounds(t *testing.T) {
	rng := NewRNG(3)
	m := XavierMatrix(rng, 8, 8)
	limit := math.Sqrt(6.0 / 16.0)
	for _, v := range m.Data {
		if math.Abs(v) > limit {
			t.Fatalf("xavier value %v exceeds limit %v", v, limit)
		}
	}
}

// Property: (A·Bᵀ)ᵀ == B·Aᵀ, exactly: each element is the same dot product.
func TestPropertyMatMulTranspose(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := RandomMatrix(rng, m, k, 1)
		b := RandomMatrix(rng, n, k, 1)
		ab, ba := NewMatrix(m, n), NewMatrix(n, m)
		MatMulTransInto(ab, a, b)
		MatMulTransInto(ba, b, a)
		lhs := transpose(ab)
		for i := range lhs.Data {
			if lhs.Data[i] != ba.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: matmul distributes over addition: A(B+C)ᵀ == ABᵀ + ACᵀ.
func TestPropertyMatMulDistributive(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		m, k, n := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := RandomMatrix(rng, m, k, 1)
		b := RandomMatrix(rng, n, k, 1)
		c := RandomMatrix(rng, n, k, 1)
		sum := b.Clone()
		Axpy(1, c.Data, sum.Data)
		lhs, ab, ac := NewMatrix(m, n), NewMatrix(m, n), NewMatrix(m, n)
		MatMulTransInto(lhs, a, sum)
		MatMulTransInto(ab, a, b)
		MatMulTransInto(ac, a, c)
		for i := range lhs.Data {
			if !almostEqual(lhs.Data[i], ab.Data[i]+ac.Data[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce same stream")
		}
	}
	c := NewRNG(43)
	if NewRNG(42).Uint64() == c.Uint64() {
		t.Fatal("different seeds should produce different streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	rng := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := rng.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	rng := NewRNG(11)
	n := 50000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := rng.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(9)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children should differ")
	}
}

func TestZipfSkew(t *testing.T) {
	rng := NewRNG(13)
	z := NewZipf(rng, 1000, 1.1)
	counts := make([]int, 1000)
	n := 100000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	// Item 0 must be sampled far more than item 999.
	if counts[0] < 50*counts[999]+1 {
		t.Fatalf("zipf not skewed: head %d tail %d", counts[0], counts[999])
	}
	// Top 10% of items should dominate accesses (paper Fig 12: ~90%+).
	top := 0
	for i := 0; i < 100; i++ {
		top += counts[i]
	}
	if float64(top)/float64(n) < 0.60 {
		t.Fatalf("top-10%% share %v too low for s=1.1", float64(top)/float64(n))
	}
}

func TestZipfBounds(t *testing.T) {
	rng := NewRNG(17)
	z := NewZipf(rng, 10, 1.0)
	for i := 0; i < 10000; i++ {
		v := z.Next()
		if v < 0 || v >= 10 {
			t.Fatalf("zipf sample out of range: %d", v)
		}
	}
}
