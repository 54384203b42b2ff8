//go:build !race

package heb

// raceEnabled reports whether the race detector is on.
const raceEnabled = false
