//go:build race

package vdb

// raceEnabled scales the seeded suites down under the race detector, which
// slows inference by an order of magnitude; the cases they drop are
// single-goroutine and have nothing for it to find.
const raceEnabled = true
