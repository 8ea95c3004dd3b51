//go:build race

package cluster

// raceDetector: sync.Pool drops a quarter of its Puts under the race detector,
// so what net/http allocates per request, and with it every allocation count,
// means nothing there.
const raceDetector = true
