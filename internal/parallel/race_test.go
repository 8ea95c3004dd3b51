//go:build race

package parallel

// raceDetector: sync.Pool drops a quarter of its Puts under the race detector,
// so allocation counts mean nothing there.
const raceDetector = true
