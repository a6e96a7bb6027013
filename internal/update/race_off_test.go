//go:build !race

package update

// raceEnabled gates allocation-count assertions; see race_on_test.go.
const raceEnabled = false
