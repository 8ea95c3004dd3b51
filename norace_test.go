//go:build !race

package shmt_test

const raceDetector = false
