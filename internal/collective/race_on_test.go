//go:build race

package collective

// raceEnabled gates allocation-count assertions: the race detector
// instruments closures and escapes, so allocation counts under it mean
// nothing.
const raceEnabled = true
