//go:build !race

package cluster

// raceEnabled skips the allocation tests; see race_on_test.go.
const raceEnabled = false
