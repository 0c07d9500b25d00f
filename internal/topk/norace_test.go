//go:build !race

package topk

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
