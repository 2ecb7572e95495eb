//go:build race

package collector

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop items at random, so allocation figures measured under it are
// not the program's own.
const raceEnabled = true
