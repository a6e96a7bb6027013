package tensor

// hasAVX2 reports whether the CPU has AVX2 and the OS saves YMM state
// (CPUID leaves 1 and 7, XGETBV).
func hasAVX2() bool

// The AVX2 kernels below keep the lane rule in the package doc. Each takes
// its operands' lengths from dst (and x for transMatVecAVX2) or from its
// size arguments; callers have checked every shape.

//go:noescape
func transMatVecAVX2(dst, at, x, b []float64, relu bool)

//go:noescape
func pairDotsAVX2(dst, f, ft []float64, n, d int)

//go:noescape
func axpy1AVX2(dst []float64, c0 float64, x0 []float64)

//go:noescape
func axpy2AVX2(dst []float64, c0, c1 float64, x0, x1 []float64)

//go:noescape
func axpy4AVX2(dst []float64, c0, c1, c2, c3 float64, x0, x1, x2, x3 []float64)

//go:noescape
func columnMeansAVX2(mean, data []float64, rows int)

//go:noescape
func scatterAVX2(dst, data, mean []float64, rows int)

//go:noescape
func mergeAVX2(m2, om2, mean, omean []float64, f, w float64)
