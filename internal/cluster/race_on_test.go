//go:build race

package cluster

// raceEnabled skips the allocation tests: the race detector degrades
// sync.Pool by design, so allocation counts under it mean nothing.
const raceEnabled = true
