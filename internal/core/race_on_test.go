//go:build race

package core

// raceEnabled shrinks the single-goroutine differential suites, which
// the race detector slows tenfold without anything to find.
const raceEnabled = true
