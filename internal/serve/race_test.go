//go:build race

package serve

// raceDetector: sync.Pool drops a quarter of its Puts under the race detector,
// so the allocation guard has nothing steady to measure there.
const raceDetector = true
