//go:build !race

package mirrorbench

// raceEnabled reports whether the tests run under the race detector,
// which adds allocations the allocation pins must allow for.
const raceEnabled = false
