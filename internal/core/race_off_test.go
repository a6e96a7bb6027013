//go:build !race

package core

// raceEnabled shortens the long replay tests; see race_on_test.go.
const raceEnabled = false
