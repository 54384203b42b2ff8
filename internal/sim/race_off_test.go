//go:build !race

package sim

// raceEnabled reports whether the race detector is on.
const raceEnabled = false
