//go:build !race

package mlkit

const raceEnabled = false
