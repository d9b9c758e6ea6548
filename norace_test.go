//go:build !race

package repro

// raceEnabled reports whether the tests were built with the race detector.
const raceEnabled = false
