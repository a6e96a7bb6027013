//go:build race

package core

// raceEnabled shortens the long replay tests: the race detector slows the
// serve loop roughly tenfold, and the properties they check do not need the
// full request count to show.
const raceEnabled = true
