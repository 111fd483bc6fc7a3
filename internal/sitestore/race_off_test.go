//go:build !race

package sitestore

const raceEnabled = false
