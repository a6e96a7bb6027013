//go:build race

package tensor

// raceEnabled keeps the AVX2 kernels off in race builds: the race detector
// does not see the memory assembly reads and writes, so a race build runs
// the Go loops and every forward read stays instrumented.
const raceEnabled = true
