//go:build !race

package core

// raceEnabled reports whether the race detector is compiled in; it adds
// allocations of its own, so allocation-count tests skip under it.
const raceEnabled = false
