//go:build !amd64

package tensor

// hasAVX2 is false off amd64: the scalar kernels run, and the AVX2 entry
// points below are never reached.
func hasAVX2() bool { return false }

func transMatVecAVX2(dst, at, x, b []float64, relu bool) { panic("tensor: AVX2 kernel off amd64") }

func pairDotsAVX2(dst, f, ft []float64, n, d int) { panic("tensor: AVX2 kernel off amd64") }

func axpy1AVX2(dst []float64, c0 float64, x0 []float64) { panic("tensor: AVX2 kernel off amd64") }

func axpy2AVX2(dst []float64, c0, c1 float64, x0, x1 []float64) {
	panic("tensor: AVX2 kernel off amd64")
}

func axpy4AVX2(dst []float64, c0, c1, c2, c3 float64, x0, x1, x2, x3 []float64) {
	panic("tensor: AVX2 kernel off amd64")
}

func columnMeansAVX2(mean, data []float64, rows int) { panic("tensor: AVX2 kernel off amd64") }

func scatterAVX2(dst, data, mean []float64, rows int) { panic("tensor: AVX2 kernel off amd64") }

func mergeAVX2(m2, om2, mean, omean []float64, f, w float64) {
	panic("tensor: AVX2 kernel off amd64")
}
