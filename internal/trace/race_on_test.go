//go:build race

package trace

// raceEnabled gates allocation-count assertions: race-detector
// instrumentation changes allocation behavior, so alloc tests are skipped.
const raceEnabled = true
