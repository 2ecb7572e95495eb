//go:build !race

package collector

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
