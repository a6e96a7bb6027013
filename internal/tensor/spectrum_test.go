package tensor

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

// Equivalence tests for the Gram-route spectrum kernels (ComputePCA,
// CovarianceSpectrum, TruncatedSVD) against the tall-matrix one-sided Jacobi
// SVD they replaced. The reference lives here and nowhere else.

// refSingularValues is the historical ComputeSVD, reduced to what the
// comparisons need: one-sided Jacobi rotations orthogonalize the columns of a
// working copy of a; the column norms, descending, are the singular values.
func refSingularValues(a *Matrix) []float64 {
	if a.Rows < a.Cols {
		return refSingularValues(a.T())
	}
	m, n := a.Rows, a.Cols
	cols := make([][]float64, n)
	for j := range cols {
		cols[j] = make([]float64, m)
		for i := 0; i < m; i++ {
			cols[j][i] = a.At(i, j)
		}
	}
	const tol = 1e-12
	for sweep := 0; sweep < 60; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				alpha := Dot(cols[p], cols[p])
				beta := Dot(cols[q], cols[q])
				gamma := Dot(cols[p], cols[q])
				if math.Abs(gamma) <= tol*math.Sqrt(alpha*beta) || gamma == 0 {
					continue
				}
				off += gamma * gamma
				zeta := (beta - alpha) / (2 * gamma)
				var t float64
				if zeta > 0 {
					t = 1 / (zeta + math.Sqrt(1+zeta*zeta))
				} else {
					t = -1 / (-zeta + math.Sqrt(1+zeta*zeta))
				}
				c := 1 / math.Sqrt(1+t*t)
				rotate(cols[p], cols[q], c, c*t)
			}
		}
		if off < tol {
			break
		}
	}
	sigma := make([]float64, n)
	for j := range sigma {
		sigma[j] = Norm2(cols[j])
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(sigma)))
	return sigma
}

// refPCAEigenvalues is the historical SVD-route PCA: λ_j = σ_j²/(rows−1) of
// the mean-centered matrix.
func refPCAEigenvalues(a *Matrix) []float64 {
	centered := a.Clone()
	mean := make([]float64, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for j, v := range a.Row(i) {
			mean[j] += v / float64(a.Rows)
		}
	}
	for i := 0; i < a.Rows; i++ {
		row := centered.Row(i)
		for j := range row {
			row[j] -= mean[j]
		}
	}
	denom := math.Max(float64(a.Rows-1), 1)
	s := refSingularValues(centered)
	eig := make([]float64, a.Cols) // wide inputs: the SVD has only Rows values
	for j := 0; j < len(s) && j < len(eig); j++ {
		eig[j] = s[j] * s[j] / denom
	}
	return eig
}

// gradientLike returns an m×d matrix of rank-r structure plus noise, the
// shape of a pooled-gradient window.
func gradientLike(rng *RNG, m, d, r int, noise float64) *Matrix {
	basis := RandomMatrix(rng, r, d, 1)
	a := NewMatrix(m, d)
	for i := 0; i < m; i++ {
		row := a.Row(i)
		for k := 0; k < r; k++ {
			Axpy(rng.NormFloat64()*float64(r-k), basis.Row(k), row)
		}
		for j := range row {
			row[j] += rng.NormFloat64() * noise
		}
	}
	return a
}

func TestSpectrumMatchesSVDReference(t *testing.T) {
	rng := NewRNG(77)
	constCol := RandomMatrix(rng, 40, 6, 1)
	for i := 0; i < constCol.Rows; i++ {
		constCol.Set(i, 2, 3.5) // zero-variance feature
	}
	rankDef := NewMatrix(30, 5)
	u, v := RandomMatrix(rng, 30, 2, 1), RandomMatrix(rng, 2, 5, 1)
	MatMulInto(rankDef, u, v)
	cases := map[string]*Matrix{
		"random":      RandomMatrix(rng, 256, 16, 1),
		"gradient":    gradientLike(rng, 256, 16, 3, 0.05),
		"rank2":       rankDef,
		"constcolumn": constCol,
		"wide":        RandomMatrix(rng, 5, 12, 1), // m < n
		"tworows":     RandomMatrix(rng, 2, 4, 1),
		"zero":        NewMatrix(10, 4),
	}
	for name, a := range cases {
		before := a.Clone()
		got := ComputePCA(a).Eigenvalues
		want := refPCAEigenvalues(a)
		if len(got) != a.Cols {
			t.Fatalf("%s: %d eigenvalues, want %d", name, len(got), a.Cols)
		}
		for j := range got {
			if got[j] < 0 || (j > 0 && got[j] > got[j-1]) {
				t.Fatalf("%s: spectrum not non-negative descending: %v", name, got)
			}
			if math.Abs(got[j]-want[j]) > 1e-9*want[0] {
				t.Fatalf("%s: eigenvalue %d = %v, reference %v (λ₀ %v)", name, j, got[j], want[j], want[0])
			}
		}
		for i := range a.Data {
			if a.Data[i] != before.Data[i] {
				t.Fatalf("%s: ComputePCA modified its input", name)
			}
		}
	}
}

// jacobiSpectrum is CovarianceSpectrum with the eigen-solve it had before
// the tridiagonal QL: the same mean and covariance, diagonalized by cyclic
// Jacobi.
func jacobiSpectrum(a *Matrix) []float64 {
	n := a.Cols
	mean := make([]float64, n)
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
	cov := make([]float64, n*n)
	gramInto(cov, a, mean)
	symEigen(cov, n, make([]float64, n*n))
	denom := math.Max(float64(a.Rows-1), 1)
	eig := make([]float64, n)
	for j := range eig {
		eig[j] = math.Max(cov[j*n+j], 0) / denom
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(eig)))
	return eig
}

// TestSpectrumQLMatchesJacobi: the QL spectrum against the Jacobi one on the
// inputs rank adaptation can hand it — gradient windows of every ring fill —
// and on the degenerate ones: zero, a constant column, rank 1, fewer rows
// than columns, one column, odd widths.
func TestSpectrumQLMatchesJacobi(t *testing.T) {
	rng := NewRNG(31)
	constCol := RandomMatrix(rng, 40, 7, 1)
	for i := 0; i < constCol.Rows; i++ {
		constCol.Set(i, 3, -2.25)
	}
	rank1 := NewMatrix(50, 9)
	MatMulInto(rank1, RandomMatrix(rng, 50, 1, 1), RandomMatrix(rng, 1, 9, 1))
	cases := map[string]*Matrix{
		"zero":        NewMatrix(12, 16),
		"constcolumn": constCol,
		"rank1":       rank1,
		"wide":        RandomMatrix(rng, 5, 16, 1),
		"onecolumn":   RandomMatrix(rng, 30, 1, 1),
		"odd15":       gradientLike(rng, 100, 15, 5, 0.05),
		"odd3":        RandomMatrix(rng, 9, 3, 1),
		"tworows":     RandomMatrix(rng, 2, 16, 1),
		"onerow":      RandomMatrix(rng, 1, 16, 1),
	}
	for m := 2; m <= 256; m *= 2 {
		cases[fmt.Sprintf("ring%d", m)] = gradientLike(rng, m, 16, 3, 0.05)
	}
	var ws SpectrumScratch
	for name, a := range cases {
		want := jacobiSpectrum(a)
		got := CovarianceSpectrum(a, &ws)
		for j := range want {
			if math.Abs(got[j]-want[j]) > 1e-12*want[0] || (want[0] == 0 && got[j] != 0) {
				t.Fatalf("%s: eigenvalue %d = %v, Jacobi %v (λ₀ %v)", name, j, got[j], want[j], want[0])
			}
		}
	}
}

// TestSpectrumScaleInvariant: scaling the data by a power of two s scales
// the spectrum by exactly s², even where the covariance's squares would
// leave the float64 range (the QL solve's own normalization).
func TestSpectrumScaleInvariant(t *testing.T) {
	a := gradientLike(NewRNG(41), 64, 16, 4, 0.1)
	want := append([]float64(nil), ComputePCA(a).Eigenvalues...)
	for _, s := range []float64{0x1p-400, 0x1p400} {
		scaled := a.Clone()
		scaled.Scale(s)
		for j, v := range ComputePCA(scaled).Eigenvalues {
			if v != want[j]*s*s {
				t.Fatalf("scale %v: eigenvalue %d = %v, want exactly %v", s, j, v, want[j]*s*s)
			}
		}
	}
}

// TestSpectrumMinRankMatchesReference: over 200 gradient windows, the rank
// Eq. 2 reads off the spectrum is the one the SVD route and the Jacobi
// solver give, at every threshold rank adaptation uses.
func TestSpectrumMinRankMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		rng := NewRNG(seed)
		a := gradientLike(rng, 32+rng.Intn(225), 16, 1+rng.Intn(8), 0.02+0.3*rng.Float64())
		got := ComputePCA(a)
		want := &PCA{Eigenvalues: refPCAEigenvalues(a)}
		jacobi := &PCA{Eigenvalues: jacobiSpectrum(a)}
		for _, alpha := range []float64{0.5, 0.8, 0.95} {
			g, w, j := got.MinRankForVariance(alpha), want.MinRankForVariance(alpha), jacobi.MinRankForVariance(alpha)
			if g != w || g != j {
				t.Fatalf("seed %d α=%v: rank %d, SVD reference %d, Jacobi %d", seed, alpha, g, w, j)
			}
		}
	}
}

// TestSpectrumScratchReuse: results do not depend on what the scratch held
// before; a cold scratch allocates once, and a warm one nothing while the
// gradient ring fills from 2 rows to 256 (the scratch is sized by the width
// alone).
func TestSpectrumScratchReuse(t *testing.T) {
	rng := NewRNG(5)
	a, b := RandomMatrix(rng, 64, 16, 1), RandomMatrix(rng, 20, 8, 1)
	var ws SpectrumScratch
	first := append([]float64(nil), CovarianceSpectrum(a, &ws)...)
	CovarianceSpectrum(b, &ws) // a smaller problem through the same scratch
	again := CovarianceSpectrum(a, &ws)
	for j := range first {
		if first[j] != again[j] || first[j] != ComputePCA(a).Eigenvalues[j] {
			t.Fatalf("eigenvalue %d depends on scratch history: %v vs %v", j, first[j], again[j])
		}
	}
	if n := testing.AllocsPerRun(20, func() { CovarianceSpectrum(a, &ws) }); n != 0 {
		t.Fatalf("CovarianceSpectrum on a warm scratch allocates %v times", n)
	}
	if n := testing.AllocsPerRun(5, func() { CovarianceSpectrum(a, &SpectrumScratch{}) }); n != 1 {
		t.Fatalf("CovarianceSpectrum on a cold scratch allocates %v times, want 1", n)
	}
	ring := RandomMatrix(rng, 256, 16, 1)
	var fill SpectrumScratch
	CovarianceSpectrum(&Matrix{Rows: 2, Cols: 16, Data: ring.Data[:32]}, &fill)
	if n := testing.AllocsPerRun(1, func() {
		for m := 2; m <= ring.Rows; m++ {
			CovarianceSpectrum(&Matrix{Rows: m, Cols: 16, Data: ring.Data[:m*16]}, &fill)
		}
	}); n != 0 {
		t.Fatalf("a filling gradient ring allocates %v times, want 0", n)
	}
}

func TestSymEigenDecomposes(t *testing.T) {
	rng := NewRNG(9)
	for _, n := range []int{1, 2, 5, 16} {
		r := RandomMatrix(rng, n+3, n, 1)
		s := make([]float64, n*n)
		gramInto(s, r, make([]float64, n))
		for p := 0; p < n; p++ { // symEigen needs only the upper triangle; the check wants it all
			for q := 0; q < p; q++ {
				s[p*n+q] = s[q*n+p]
			}
		}
		orig := append([]float64(nil), s...)
		vt := make([]float64, n*n)
		symEigen(s, n, vt)
		v := NewMatrixFrom(n, n, vt)
		// vt·orig·vtᵀ must be diag(eigenvalues), and vt orthonormal.
		proj := MatMul(MatMul(v, NewMatrixFrom(n, n, orig)), v.T())
		gram := MatMul(v, v.T())
		scale := Norm2(orig)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want, unit := 0.0, 0.0
				if i == j {
					want, unit = s[i*n+i], 1
				}
				if math.Abs(proj.At(i, j)-want) > 1e-12*scale {
					t.Fatalf("n=%d: (VᵀSV)[%d][%d] = %v, want %v", n, i, j, proj.At(i, j), want)
				}
				if math.Abs(gram.At(i, j)-unit) > 1e-12 {
					t.Fatalf("n=%d: eigenvectors not orthonormal at [%d][%d]: %v", n, i, j, gram.At(i, j))
				}
			}
		}
	}
}

func TestTruncatedSVDResidualMatchesReference(t *testing.T) {
	rng := NewRNG(123)
	cases := []*Matrix{
		RandomMatrix(rng, 96, 16, 1),
		gradientLike(rng, 300, 16, 4, 0.01),
		gradientLike(rng, 40, 8, 2, 0), // exactly rank 2
		RandomMatrix(rng, 4, 9, 1),     // wide
	}
	for ci, a := range cases {
		sigma := refSingularValues(a)
		norm2 := a.FrobeniusNorm() * a.FrobeniusNorm()
		for k := 0; k <= minInt(a.Rows, a.Cols); k++ {
			left, right := TruncatedSVD(a, k)
			res := MatMul(left, right)
			res.Sub(a)
			got := res.FrobeniusNorm() * res.FrobeniusNorm()
			want := 0.0
			for _, s := range sigma[k:] {
				want += s * s
			}
			if math.Abs(got-want) > 1e-9*norm2 {
				t.Fatalf("case %d k=%d: residual² %v, Σ discarded σ² %v", ci, k, got, want)
			}
			rrt := MatMul(right, right.T())
			for i := 0; i < k; i++ {
				for j := 0; j < k; j++ {
					want := 0.0
					if i == j {
						want = 1
					}
					if math.Abs(rrt.At(i, j)-want) > 1e-12 {
						t.Fatalf("case %d k=%d: right rows not orthonormal at [%d][%d]: %v", ci, k, i, j, rrt.At(i, j))
					}
				}
			}
		}
	}
}

func TestMinRankForVariance(t *testing.T) {
	eig := []float64{9, 4, 1} // total 14
	for _, c := range []struct {
		alpha float64
		want  int
	}{{0.5, 1}, {0.9, 2}, {0.99, 3}, {1, 3}} {
		if got := MinRankForVariance(eig, c.alpha); got != c.want {
			t.Fatalf("MinRankForVariance(%v) = %d, want %d", c.alpha, got, c.want)
		}
	}
	if got := MinRankForVariance([]float64{0, 0}, 0.8); got != 1 {
		t.Fatalf("zero spectrum: rank %d, want 1", got)
	}
}
