//go:build race

package serial

// raceEnabled reports whether the race detector is active.
const raceEnabled = true
