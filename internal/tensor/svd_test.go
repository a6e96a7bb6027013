package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

// Property (Eckart–Young): the rank-k truncation error equals
// sqrt(sum of squared discarded singular values).
func TestPropertyEckartYoung(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		m, n := 3+rng.Intn(10), 3+rng.Intn(6)
		a := RandomMatrix(rng, m, n, 1)
		sigma := refSingularValues(a)
		k := 1 + rng.Intn(minInt(m, n))
		left, right := TruncatedSVD(a, k)
		approx := matMul(left, right)
		Axpy(-1, a.Data, approx.Data)
		got := Norm2(approx.Data)
		want := 0.0
		for _, s := range sigma[k:] {
			want += s * s
		}
		want = math.Sqrt(want)
		return almostEqual(got, want, 1e-6*(1+Norm2(a.Data)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestTruncatedSVDShapes(t *testing.T) {
	rng := NewRNG(31)
	a := RandomMatrix(rng, 10, 6, 1)
	left, right := TruncatedSVD(a, 3)
	if left.Rows != 10 || left.Cols != 3 || right.Rows != 3 || right.Cols != 6 {
		t.Fatalf("bad shapes left %dx%d right %dx%d", left.Rows, left.Cols, right.Rows, right.Cols)
	}
	// k beyond min dim clamps.
	left, right = TruncatedSVD(a, 99)
	if left.Cols != 6 || right.Rows != 6 {
		t.Fatalf("clamping failed: left cols %d", left.Cols)
	}
	// k = 0 gives empty factors.
	left, right = TruncatedSVD(a, 0)
	if left.Cols != 0 || right.Rows != 0 {
		t.Fatal("k=0 should yield empty factors")
	}
}

func TestPCALowRankData(t *testing.T) {
	// Generate data that lies (noisily) in a 2-D subspace of R^8.
	rng := NewRNG(41)
	d := 8
	b1 := make([]float64, d)
	b2 := make([]float64, d)
	for j := 0; j < d; j++ {
		b1[j] = rng.NormFloat64()
		b2[j] = rng.NormFloat64()
	}
	n := 200
	data := NewMatrix(n, d)
	for i := 0; i < n; i++ {
		c1, c2 := rng.NormFloat64()*3, rng.NormFloat64()*2
		row := data.Row(i)
		for j := 0; j < d; j++ {
			row[j] = c1*b1[j] + c2*b2[j] + rng.NormFloat64()*0.01
		}
	}
	pca := ComputePCA(data)
	if k := pca.MinRankForVariance(0.95); k > 2 {
		t.Fatalf("2-D data needed rank %d for 95%% variance", k)
	}
	ci := pca.CumulativeImportance()
	if ci[len(ci)-1] < 0.999 {
		t.Fatalf("cumulative importance must end at 1, got %v", ci[len(ci)-1])
	}
	for i := 1; i < len(ci); i++ {
		if ci[i] < ci[i-1]-1e-12 {
			t.Fatal("cumulative importance must be non-decreasing")
		}
	}
}

func TestPCAMeanInvariance(t *testing.T) {
	// Adding a constant offset to all rows must not change eigenvalues.
	rng := NewRNG(43)
	a := RandomMatrix(rng, 50, 5, 1)
	shifted := a.Clone()
	for i := 0; i < shifted.Rows; i++ {
		row := shifted.Row(i)
		for j := range row {
			row[j] += 100
		}
	}
	p1 := ComputePCA(a)
	p2 := ComputePCA(shifted)
	for i := range p1.Eigenvalues {
		if !almostEqual(p1.Eigenvalues[i], p2.Eigenvalues[i], 1e-6*(1+p1.Eigenvalues[0])) {
			t.Fatalf("eigenvalue %d changed under mean shift: %v vs %v",
				i, p1.Eigenvalues[i], p2.Eigenvalues[i])
		}
	}
}

func TestPCAZeroVariance(t *testing.T) {
	a := NewMatrix(10, 4) // all-zero data
	p := ComputePCA(a)
	ci := p.CumulativeImportance()
	for _, v := range ci {
		if v != 1 {
			t.Fatalf("zero-variance CI should be all 1s, got %v", ci)
		}
	}
	if k := p.MinRankForVariance(0.8); k != 1 {
		t.Fatalf("zero-variance min rank = %d, want 1", k)
	}
}
