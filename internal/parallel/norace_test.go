//go:build !race

package parallel

const raceDetector = false
