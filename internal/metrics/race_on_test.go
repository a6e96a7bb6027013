//go:build race

package metrics

// raceEnabled gates allocation-count assertions: race-detector
// instrumentation changes allocation behavior, so alloc tests are skipped
// and asserted in the no-race CI alloc-gate job instead.
const raceEnabled = true
