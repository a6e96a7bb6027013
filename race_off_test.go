//go:build !race

package liveupdate

// raceEnabled runs the determinism matrix's covering subset only; see
// race_on_test.go.
const raceEnabled = false
