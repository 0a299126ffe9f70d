//go:build race

package mlkit

// raceEnabled reports whether the race detector is active; allocation
// regression thresholds are skipped under it because sync.Pool drops
// Puts at random in race mode.
const raceEnabled = true
