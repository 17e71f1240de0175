//go:build race

package transpile_test

// raceEnabled reports whether the tests run under the race detector,
// which adds allocations the allocation pins must allow for.
const raceEnabled = true
