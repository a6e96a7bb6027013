package tensor

// The two spectral tools LiveUpdate's dynamic rank adaptation is built on
// (paper §III-B, §IV-C): PCA of a gradient window and the truncated
// (Eckart–Young) rank-k factorization of a tall matrix.
//
// Both reduce an m×d data matrix to its d×d Gram/covariance matrix first
// (m·d²/2 multiply-adds) and diagonalize that: for the d ≤ 64 embedding
// dimensions the paper operates on, the eigen-solve is independent of m and
// costs a small fraction of an SVD of the tall matrix itself. Forming the
// Gram matrix squares the condition number, so singular values below
// ~1e-8·σ₀ are not resolved — far under the variance thresholds (α ≤ 0.95)
// anything here decides on.
//
// The covariance is carried as Moments (count, mean, centred scatter), which
// merge pairwise: rank adaptation keeps one set per 32-row block of its
// gradient ring, each computed once when the block fills, and a pass merges
// them at d²/2 multiply-adds per block instead of re-reading the window's
// m·d²/2. The merged spectrum differs from the whole-window one by rounding
// alone (≈ 1e-15·λ₀).
//
// There are two eigen-solvers. The spectrum (Moments.Spectrum, read by
// every rank-adaptation pass) needs eigenvalues only and takes the cheap
// route: Householder reduction to tridiagonal form, then implicit-shift QL —
// the pair behind Eigen's SelfAdjointEigenSolver, ≈ (4/3)d³ + O(d²) flops.
// TruncatedSVD (the rare rank shrink) needs eigenvectors and keeps cyclic
// Jacobi, whose vectors the pinned serving bits were recorded with.

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
// return s's diagonal holds the eigenvalues, in no particular order, and row
// j of vt (n×n elements) the unit eigenvector paired with s[j*n+j].
func symEigen(s []float64, n int, vt []float64) {
	clear(vt)
	for j := 0; j < n; j++ {
		vt[j*n+j] = 1
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
				rotate(vt[p*n:(p+1)*n], vt[q*n:(q+1)*n], c, sn)
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

// tridiagonalize reduces the symmetric n×n matrix given by the upper
// triangle of s (row-major) to a tridiagonal matrix with the same
// eigenvalues by n−2 Householder reflections, working on the lower triangle
// (the upper one is mirrored into it first; s is destroyed). On return d
// holds the diagonal and e[i] the element coupling i−1 and i (e[0] = 0).
// Eigenvalues only: the reflections are not accumulated (EISPACK's tred1).
func tridiagonalize(s []float64, n int, d, e []float64) {
	for i := 1; i < n; i++ {
		for k := 0; k < i; k++ {
			s[i*n+k] = s[k*n+i]
		}
	}
	for i := n - 1; i > 0; i-- {
		l := i - 1
		u := s[i*n : i*n+i] // row i left of the diagonal, becomes the reflector
		if l == 0 {
			e[i] = u[0]
			continue
		}
		scale := 0.0
		for _, v := range u {
			scale += math.Abs(v)
		}
		if scale == 0 {
			e[i] = u[l] // already reduced
			continue
		}
		h := 0.0
		for k, v := range u {
			v /= scale
			u[k] = v
			h += v * v
		}
		f := u[l]
		g := math.Sqrt(h)
		if f >= 0 {
			g = -g
		}
		e[i] = scale * g
		h -= f * g
		u[l] = f - g
		// p = A·u/h into e[:i], then K = uᵀp/2h.
		f = 0
		for j := 0; j <= l; j++ {
			g := 0.0
			for k, v := range s[j*n : j*n+j+1] {
				g += v * u[k]
			}
			for k := j + 1; k <= l; k++ {
				g += s[k*n+j] * u[k]
			}
			e[j] = g / h
			f += e[j] * u[j]
		}
		hh := f / (h + h)
		// A ← A − u·qᵀ − q·uᵀ with q = p − K·u, on the lower triangle.
		for j := 0; j <= l; j++ {
			f := u[j]
			g := e[j] - hh*f
			e[j] = g
			row := s[j*n : j*n+j+1]
			for k := range row {
				row[k] -= f*e[k] + g*u[k]
			}
		}
	}
	for i := 0; i < n; i++ {
		d[i] = s[i*n+i]
	}
	if n > 0 {
		e[0] = 0
	}
}

// qlMaxIter bounds the QL sweeps spent on one eigenvalue; they take two or
// three in practice, and the bound only stops a NaN input from spinning.
const qlMaxIter = 60

// tridiagonalEigenvalues overwrites d with the eigenvalues, in no particular
// order, of the symmetric tridiagonal matrix with diagonal d and
// off-diagonal e as tridiagonalize leaves them (e[i] couples i−1 and i); e
// is destroyed. Implicit-shift QL with Wilkinson-style shifts (tql1/tqli): an
// off-diagonal element counts as zero once adding it to its neighbours'
// diagonal magnitudes changes nothing.
//
// The matrix is first scaled by the power of two that brings its largest
// element into [½, 1), and the eigenvalues scaled back at the end. That is
// exact, so the arithmetic is the unscaled matrix's, but it lets the
// rotations take √(f²+g²) directly, where math.Hypot would cost a third of
// the solve: nothing squared can overflow, and what underflows is below
// 1e-150 of the largest element.
func tridiagonalEigenvalues(d, e []float64) {
	n := len(d)
	if n == 0 {
		return
	}
	e = e[:n]
	copy(e, e[1:]) // e[i] now couples i and i+1
	e[n-1] = 0
	big := 0.0
	for i := range d {
		big = max(big, math.Abs(d[i]), math.Abs(e[i]))
	}
	if big == 0 || math.IsNaN(big) || math.IsInf(big, 0) {
		return // diagonal already, or nothing to resolve
	}
	_, exp := math.Frexp(big)
	for i := range d {
		d[i], e[i] = math.Ldexp(d[i], -exp), math.Ldexp(e[i], -exp)
	}
	for l := 0; l < n; l++ {
		for iter := 0; iter < qlMaxIter; iter++ {
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m])+dd == dd {
					break
				}
			}
			if m == l {
				break // d[l] has converged
			}
			g := (d[l+1] - d[l]) / (2 * e[l]) // |g| < 1/ε: e[l] is not negligible
			r := math.Sqrt(g*g + 1)
			if g < 0 {
				r = -r
			}
			g = d[m] - d[l] + e[l]/(g+r)
			s, c, p := 1.0, 1.0, 0.0
			i := m - 1
			for ; i >= l; i-- {
				f, b := s*e[i], c*e[i]
				r = math.Sqrt(f*f + g*g)
				e[i+1] = r
				if r == 0 { // underflow: the block splits here; retry
					d[i+1] -= p
					e[m] = 0
					break
				}
				s, c = f/r, g/r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
			}
			if r == 0 && i >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	for i := range d {
		d[i] = math.Ldexp(d[i], exp)
	}
}

// gramInto writes Σ_i (a_i−mean)(a_i−mean)ᵀ over a's rows into the n×n
// matrix g; a zero mean gives aᵀa. Only the upper triangle is meaningful on
// return, which is all either eigen-solver and Moments.Merge read; of the
// strict lower triangle, only cells inside the diagonal 4×4 blocks may be
// written. Each cell sums its products from +0 over the rows in order,
// centring on the fly, so a is never copied: scatterAVX2 makes each cell one
// lane, and the Go loop is its fallback (an odd n pairs its last column with
// itself there).
func gramInto(g []float64, a *Matrix, mean []float64) {
	n := a.Cols
	data := a.Data[:a.Rows*n]
	if useAVX2 {
		scatterAVX2(g[:n*n], data, mean[:n], a.Rows)
		return
	}
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

// Moments are the sufficient statistics of a sample covariance: the row
// count, the mean, and the upper triangle of the centred scatter
// Σ_i (x_i−mean)(x_i−mean)ᵀ (d×d, row-major; the strict lower triangle is
// scratch). Two sets of moments merge exactly in real arithmetic (Chan,
// Golub & LeVeque's pairwise update), so the covariance of a sliding window
// can be assembled from per-block moments, each computed fresh from its rows
// once, instead of re-reading the whole window or carrying running sums that
// drift. Mean and M2 must hold d and d×d elements; MakeMoments carves them.
type Moments struct {
	N    int
	Mean []float64
	M2   []float64
}

// MakeMoments returns count empty d-dimensional Moments whose vectors are
// carved from one slab.
func MakeMoments(count, d int) []Moments {
	ms := make([]Moments, count)
	slab := make([]float64, count*(d+d*d))
	for i := range ms {
		s := slab[i*(d+d*d) : (i+1)*(d+d*d)]
		ms[i] = Moments{Mean: s[:d:d], M2: s[d:]}
	}
	return ms
}

// Of sets m to the moments of a's rows (observations × features): the mean
// summed in row order, then the scatter about it (gramInto).
func (m *Moments) Of(a *Matrix) {
	m.N = a.Rows
	mean := m.Mean[:a.Cols]
	if useAVX2 {
		columnMeansAVX2(mean, a.Data[:a.Rows*a.Cols], a.Rows)
	} else {
		clear(mean)
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
	}
	gramInto(m.M2, a, mean)
}

// Merge folds o into m, leaving m the moments of both row sets together:
// with δ = mean_o − mean_m, M2 += M2_o + δδᵀ·n_m·n_o/n and mean += δ·n_o/n.
// Merging into empty moments copies o exactly; merging empty o is a no-op;
// any other merge reads and writes only M2's upper triangle.
func (m *Moments) Merge(o *Moments) {
	switch {
	case o.N == 0:
		return
	case m.N == 0:
		m.N = o.N
		copy(m.Mean, o.Mean)
		copy(m.M2, o.M2)
		return
	}
	d := len(m.Mean)
	na, nb := float64(m.N), float64(o.N)
	n := na + nb
	f, g := na*nb/n, nb/n
	m.N += o.N
	if useAVX2 {
		mergeAVX2(m.M2[:d*d], o.M2[:d*d], m.Mean, o.Mean[:d], f, g)
		return
	}
	for p := 0; p < d; p++ {
		dp := (o.Mean[p] - m.Mean[p]) * f
		row, orow := m.M2[p*d:(p+1)*d], o.M2[p*d:(p+1)*d]
		for q := p; q < d; q++ {
			row[q] += orow[q] + dp*(o.Mean[q]-m.Mean[q])
		}
	}
	for j, v := range o.Mean {
		m.Mean[j] += (v - m.Mean[j]) * g
	}
}

// Spectrum returns the eigenvalues, in descending order, of the sample
// covariance M2/(N−1): the variance along each principal direction. The
// scatter is copied into ws, reduced by Householder tridiagonalization and
// solved by implicit QL; m is not modified. The result aliases ws and is
// valid until ws's next use.
func (m *Moments) Spectrum(ws *SpectrumScratch) []float64 {
	n := len(m.Mean)
	eig, off, cov, _, _ := ws.carve(n)
	copy(cov, m.M2)
	tridiagonalize(cov, n, eig, off)
	tridiagonalEigenvalues(eig, off)
	denom := float64(m.N - 1)
	if denom < 1 {
		denom = 1
	}
	for j, v := range eig {
		// A covariance is positive semi-definite; clamp rounding residue.
		eig[j] = math.Max(v, 0) / denom
	}
	slices.Sort(eig)
	slices.Reverse(eig)
	return eig
}

// SpectrumScratch holds the buffers of Moments.Spectrum and
// covarianceSpectrum, so a caller that recomputes a spectrum periodically
// (lora's rank adaptation) allocates them once. The zero value is ready to
// use.
type SpectrumScratch struct {
	slab []float64 // carved per call; sized by d only
}

// carve returns the d-length eigenvalue and off-diagonal vectors and the d×d
// matrix the eigen-solve destroys, then the mean and scatter
// covarianceSpectrum builds, out of one slab that grows only with d.
func (ws *SpectrumScratch) carve(n int) (eig, off, cov, mean, m2 []float64) {
	if need := 2*n*n + 3*n; len(ws.slab) < need {
		ws.slab = make([]float64, need)
	}
	s := ws.slab
	return s[:n:n], s[n : 2*n : 2*n], s[2*n : 2*n+n*n : 2*n+n*n],
		s[2*n+n*n : 3*n+n*n : 3*n+n*n], s[3*n+n*n : 3*n+2*n*n : 3*n+2*n*n]
}

// covarianceSpectrum returns the eigenvalues, in descending order, of the
// sample covariance of a's rows (observations × features, denominator
// rows−1): Moments.Of then Moments.Spectrum, so rows are mean-centered on the
// fly and only the d×d covariance is decomposed; a is not modified. The
// result aliases ws and is valid until ws's next use.
func covarianceSpectrum(a *Matrix, ws *SpectrumScratch) []float64 {
	_, _, _, mean, m2 := ws.carve(a.Cols)
	m := Moments{Mean: mean, M2: m2}
	m.Of(a)
	return m.Spectrum(ws)
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
// (observations × features); see covarianceSpectrum for the method.
func ComputePCA(a *Matrix) *PCA {
	return &PCA{Eigenvalues: covarianceSpectrum(a, &SpectrumScratch{})}
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
