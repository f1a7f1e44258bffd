//go:build race

package catalog

// raceEnabled reports whether the race detector is on: sync.Pool then
// drops items on purpose, so allocation guards over pooled scratch skip.
const raceEnabled = true
