//go:build !race

package trace

// raceEnabled gates allocation-count assertions; see race_on_test.go.
const raceEnabled = false
