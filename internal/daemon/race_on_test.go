//go:build race

package daemon

// raceEnabled reports whether the race detector is active; allocation
// pins are skipped under it because sync.Pool drops Puts at random in
// race mode.
const raceEnabled = true
