//go:build race

package sim

// raceEnabled reports whether the race detector is on. Its runtime's
// allocation counts are not exact.
const raceEnabled = true
