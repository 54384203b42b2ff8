//go:build race

package heb

// raceEnabled reports whether the race detector is on. Its runtime drops
// sync.Pool entries at random, so allocation counts are not exact.
const raceEnabled = true
