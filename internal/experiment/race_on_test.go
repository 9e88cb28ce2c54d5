//go:build race

package experiment

// See race_off_test.go.
const raceEnabled = true
