//go:build race

package update

// raceEnabled gates allocation-count assertions: under the race detector
// sync.Pool intentionally drops items and instrumentation changes allocation
// behavior, so alloc tests are skipped.
const raceEnabled = true
