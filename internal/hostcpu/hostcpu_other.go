//go:build !amd64

package hostcpu

// AVX is false off amd64: the vector loops are amd64 assembly.
const AVX = false
