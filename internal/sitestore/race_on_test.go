//go:build race

package sitestore

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// share of what is put into it, so allocation counts are not meaningful.
const raceEnabled = true
