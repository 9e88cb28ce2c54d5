//go:build !race

package experiment

// raceEnabled reports whether the race detector is compiled in; see
// TestBinnedMatchesExactOnPaperMetrics.
const raceEnabled = false
