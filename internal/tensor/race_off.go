//go:build !race

package tensor

// raceEnabled keeps the AVX2 kernels off in race builds; see race_on.go.
const raceEnabled = false
