package tensor

import (
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

func TestSpectrumMinRankMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		rng := NewRNG(seed)
		a := gradientLike(rng, 32+rng.Intn(225), 16, 1+rng.Intn(8), 0.02+0.3*rng.Float64())
		got := ComputePCA(a)
		want := &PCA{Eigenvalues: refPCAEigenvalues(a)}
		for _, alpha := range []float64{0.5, 0.8, 0.95} {
			if g, w := got.MinRankForVariance(alpha), want.MinRankForVariance(alpha); g != w {
				t.Fatalf("seed %d α=%v: rank %d, reference %d", seed, alpha, g, w)
			}
		}
	}
}

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
