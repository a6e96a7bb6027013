package tensor

// Symmetric eigen-decomposition by cyclic two-sided Jacobi rotations, and the
// two spectral tools LiveUpdate's dynamic rank adaptation is built on (paper
// §III-B, §IV-C): PCA of a gradient window and the truncated (Eckart–Young)
// rank-k factorization of a tall matrix.
//
// Both reduce an m×d data matrix to its d×d Gram/covariance matrix first
// (m·d²/2 multiply-adds) and diagonalize that: for the d ≤ 64 embedding
// dimensions the paper operates on, the eigen-solve is independent of m and
// costs a small fraction of an SVD of the tall matrix itself. Forming the
// Gram matrix squares the condition number, so singular values below
// ~1e-8·σ₀ are not resolved — far under the variance thresholds (α ≤ 0.95)
// anything here decides on.

import (
	"cmp"
	"math"
	"slices"
)

const (
	jacobiMaxSweeps = 60
	// jacobiTol is the off-diagonal magnitude, relative to the matrix's
	// Frobenius norm, below which an element counts as annihilated.
	jacobiTol = 1e-14
)

// symEigen diagonalizes a symmetric n×n matrix given by the upper triangle of
// s (row-major; the strict lower triangle is neither read nor written): on
// return s's diagonal holds the eigenvalues, in no particular order. When vt
// is non-nil it must hold n×n elements; row j is set to the unit eigenvector
// paired with s[j*n+j].
func symEigen(s []float64, n int, vt []float64) {
	if vt != nil {
		clear(vt)
		for j := 0; j < n; j++ {
			vt[j*n+j] = 1
		}
	}
	// Rotations preserve the Frobenius norm, so one threshold serves every
	// sweep; a zero matrix yields 0 and is diagonal already.
	norm2 := 0.0
	for p := 0; p < n; p++ {
		norm2 += s[p*n+p] * s[p*n+p]
		for _, v := range s[p*n+p+1 : (p+1)*n] {
			norm2 += 2 * v * v
		}
	}
	thresh := jacobiTol * math.Sqrt(norm2)
	for sweep := 0; sweep < jacobiMaxSweeps; sweep++ {
		rotated := false
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := s[p*n+q]
				if math.Abs(apq) <= thresh {
					continue
				}
				rotated = true
				// The rotation (c, sn) that zeroes s[p][q], from t = tan of the
				// smaller-angle root (the stable one): with θ = d/b,
				// t = sgn(θ)/(|θ|+√(θ²+1)), rearranged to one division.
				app, aqq := s[p*n+p], s[q*n+q]
				d, b := aqq-app, 2*apq
				t := b / (math.Abs(d) + math.Sqrt(d*d+b*b))
				if d < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(1+t*t)
				sn := c * t
				// s ← JᵀsJ on the upper triangle: the pivot block in closed
				// form, then the n−2 element pairs that share an index with it.
				s[p*n+p], s[q*n+q], s[p*n+q] = app-t*apq, aqq+t*apq, 0
				for j := 0; j < p; j++ {
					x, y := s[j*n+p], s[j*n+q]
					s[j*n+p], s[j*n+q] = c*x-sn*y, sn*x+c*y
				}
				for j := p + 1; j < q; j++ {
					x, y := s[p*n+j], s[j*n+q]
					s[p*n+j], s[j*n+q] = c*x-sn*y, sn*x+c*y
				}
				rotate(s[p*n+q+1:(p+1)*n], s[q*n+q+1:(q+1)*n], c, sn)
				if vt != nil {
					rotate(vt[p*n:(p+1)*n], vt[q*n:(q+1)*n], c, sn)
				}
			}
		}
		if !rotated {
			return
		}
	}
}

// rotate applies the plane rotation [c s; -s c] to the vector pair (x, y).
func rotate(x, y []float64, c, s float64) {
	y = y[:len(x)]
	for i, xi := range x {
		yi := y[i]
		x[i] = c*xi - s*yi
		y[i] = s*xi + c*yi
	}
}

// gramInto writes Σ_i (a_i−mean)(a_i−mean)ᵀ over a's rows into the n×n
// matrix g; a zero mean gives aᵀa. Only the upper triangle is meaningful on
// return, which is all symEigen reads. Columns are taken in 2×2 register
// tiles and centered on the fly, so a is never copied (it is re-read once
// per tile, from L1 at the shapes used here); an odd n pairs its last column
// with itself.
func gramInto(g []float64, a *Matrix, mean []float64) {
	n := a.Cols
	data := a.Data[:a.Rows*n]
	for p := 0; p < n; p += 2 {
		p1 := min(p+1, n-1)
		mp0, mp1 := mean[p], mean[p1]
		for q := p; q < n; q += 2 {
			q1 := min(q+1, n-1)
			mq0, mq1 := mean[q], mean[q1]
			var s00, s01, s10, s11 float64
			for off := 0; off+n <= len(data); off += n {
				row := data[off : off+n]
				xp0, xp1 := row[p]-mp0, row[p1]-mp1
				xq0, xq1 := row[q]-mq0, row[q1]-mq1
				s00 += xp0 * xq0
				s01 += xp0 * xq1
				s10 += xp1 * xq0
				s11 += xp1 * xq1
			}
			// On a diagonal tile s10 lands just below the diagonal, unread.
			g[p1*n+q], g[p1*n+q1] = s10, s11
			g[p*n+q], g[p*n+q1] = s00, s01
		}
	}
}

// SpectrumScratch holds CovarianceSpectrum's buffers, so a caller that
// recomputes a spectrum periodically (lora's rank adaptation) allocates them
// once. The zero value is ready to use.
type SpectrumScratch struct {
	mean []float64
	cov  []float64 // d×d covariance, diagonalized in place
	eig  []float64
}

// CovarianceSpectrum returns the eigenvalues, in descending order, of the
// sample covariance of a's rows (observations × features, denominator
// rows−1): the variance along each principal direction. Rows are
// mean-centered on the fly and only the d×d covariance is decomposed; a is
// not modified. The result aliases ws and is valid until ws's next use.
func CovarianceSpectrum(a *Matrix, ws *SpectrumScratch) []float64 {
	m, n := a.Rows, a.Cols
	if cap(ws.eig) < n {
		ws.mean = make([]float64, n)
		ws.cov = make([]float64, n*n)
		ws.eig = make([]float64, n)
	}
	mean, cov, eig := ws.mean[:n], ws.cov[:n*n], ws.eig[:n]
	clear(mean)
	for i := 0; i < m; i++ {
		for j, v := range a.Row(i) {
			mean[j] += v
		}
	}
	if m > 0 {
		for j := range mean {
			mean[j] /= float64(m)
		}
	}
	gramInto(cov, a, mean)
	symEigen(cov, n, nil)
	denom := float64(m - 1)
	if denom < 1 {
		denom = 1
	}
	for j := range eig {
		// A covariance is positive semi-definite; clamp rounding residue.
		eig[j] = math.Max(cov[j*n+j], 0) / denom
	}
	slices.Sort(eig)
	slices.Reverse(eig)
	return eig
}

// TruncatedSVD returns the optimal rank-k approximation factors of a
// (Eckart–Young–Mirsky): A ≈ (U_k·Σ_k) · V_kᵀ, returned as the pair
// (left = U_k·Σ_k, right = V_kᵀ) so that left×right reconstructs A_k. V_k is
// the top-k eigenvectors of the Gram matrix AᵀA and left = A·V_k, so the cost
// is linear in a's rows plus one n×n eigen-solve — built for tall inputs (the
// hot rows × d delta of lora's rank shrink). k is clamped to [0, min(m, n)].
func TruncatedSVD(a *Matrix, k int) (left, right *Matrix) {
	n := a.Cols
	k = max(0, min(k, a.Rows, n))
	left, right = NewMatrix(a.Rows, k), NewMatrix(k, n)
	if k == 0 {
		return left, right
	}
	gram, vt := make([]float64, n*n), make([]float64, n*n)
	gramInto(gram, a, make([]float64, n))
	symEigen(gram, n, vt)
	order := make([]int, n)
	for j := range order {
		order[j] = j
	}
	slices.SortStableFunc(order, func(i, j int) int { // eigenvalues, descending
		return cmp.Compare(gram[j*n+j], gram[i*n+i])
	})
	for j := 0; j < k; j++ {
		copy(right.Row(j), vt[order[j]*n:(order[j]+1)*n])
	}
	MatMulTransInto(left, a, right)
	return left, right
}

// PCA holds the spectrum of a principal component analysis: the variance
// captured along each principal direction. The directions themselves are not
// computed — rank adaptation and the Fig. 6 curves read only the spectrum.
type PCA struct {
	Eigenvalues []float64 // descending
}

// ComputePCA performs principal component analysis of the rows of a
// (observations × features); see CovarianceSpectrum for the method.
func ComputePCA(a *Matrix) *PCA {
	return &PCA{Eigenvalues: CovarianceSpectrum(a, &SpectrumScratch{})}
}

// CumulativeImportance returns, for each k, the fraction of total variance
// captured by the top-k eigenvalues (the curve plotted in paper Fig. 6).
func (p *PCA) CumulativeImportance() []float64 {
	out := make([]float64, len(p.Eigenvalues))
	total := 0.0
	for _, e := range p.Eigenvalues {
		total += e
	}
	if total == 0 {
		for i := range out {
			out[i] = 1
		}
		return out
	}
	cum := 0.0
	for i, e := range p.Eigenvalues {
		cum += e
		out[i] = cum / total
	}
	return out
}

// MinRankForVariance returns the smallest k whose cumulative importance
// reaches alpha (paper Eq. 2 applied to PCA eigenvalues).
func (p *PCA) MinRankForVariance(alpha float64) int {
	return MinRankForVariance(p.Eigenvalues, alpha)
}

// MinRankForVariance returns the smallest k such that the top-k of the
// descending eigenvalues capture at least fraction alpha of their sum (paper
// Eq. 2). An all-zero spectrum needs rank 1. It does not allocate.
func MinRankForVariance(eigenvalues []float64, alpha float64) int {
	total := 0.0
	for _, e := range eigenvalues {
		total += e
	}
	if total == 0 {
		return 1
	}
	cum := 0.0
	for i, e := range eigenvalues {
		cum += e
		if cum/total >= alpha {
			return i + 1
		}
	}
	return len(eigenvalues)
}
