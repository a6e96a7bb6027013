//go:build race

package liveupdate

// raceEnabled runs the determinism matrix's covering subset only: the race
// detector slows a drive roughly tenfold.
const raceEnabled = true
