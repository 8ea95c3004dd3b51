//go:build race

package wire

// raceDetector: the race detector slows TestAppendFloatMatchesJSON's
// single-goroutine loop eightfold and has nothing to find in it, so the test
// runs its -short counts under it.
const raceDetector = true
