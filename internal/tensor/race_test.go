//go:build race

package tensor

// raceDetector: sync.Pool drops a quarter of its Puts under the race detector,
// so allocation counts of the arena mean nothing there.
const raceDetector = true
