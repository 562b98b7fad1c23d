//go:build !race

package serial

// raceEnabled reports whether the race detector is active; benchmark
// gates are skipped under -race because instrumentation changes the
// timing.
const raceEnabled = false
