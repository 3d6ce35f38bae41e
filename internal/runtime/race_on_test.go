//go:build race

package runtime

// raceEnabled reports that the race detector is compiled in: it allocates
// shadow state of its own, so tests that count bytes skip.
const raceEnabled = true
