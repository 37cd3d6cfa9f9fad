//go:build race

package dspe

// raceEnabled reports that the race detector is compiled in: its
// instrumentation multiplies CPU cost, so CPU-budget tests skip.
const raceEnabled = true
