package kernels

import (
	"shmt/internal/hostcpu"
	"shmt/internal/tensor"
)

// gemmLanes adds, to rows i..i+3 of out, every whole 4-step block of k in
// the first out.Cols&^3 columns, and returns that column count (none without
// AVX); gemmTile4 adds the rest. It takes two rows of A at a time: their four
// k-steps held as broadcasts, four columns of C per vector, each step a
// multiply and then an add in ascending k — never a fused multiply-add — so
// every element gets gemmTile4's products and additions in gemmTile4's order.
func gemmLanes(a, b, out *tensor.Matrix, i int) int {
	n, kb := out.Cols&^3, a.Cols&^3
	if !hostcpu.AVX || n == 0 || kb == 0 {
		return 0
	}
	for r := i; r < i+4; r += 2 {
		gemmPairAVX(&out.Row(r)[0], &out.Row(r + 1)[0], &a.Row(r)[0], &a.Row(r + 1)[0], &b.Data[0], b.RowStride(), n, kb)
	}
	return n
}

// roundF32Lanes is F32.Round on AVX hosts: the first len(chunk)&^3 elements,
// four lanes at a time, and how many it covered (none without AVX).
// VCVTPD2PS and VCVTPS2PD are the four-wide CVTSD2SS and CVTSS2SD that
// float64(float32(v)) compiles to, rounding by the default MXCSR, so a lane
// gets the scalar cast's bits, NaN payloads included.
func roundF32Lanes(chunk []float64) int {
	n := len(chunk) &^ 3
	if !hostcpu.AVX || n == 0 {
		return 0
	}
	roundF32AVX(&chunk[0], n)
	return n
}

// gemmPairAVX adds A rows a0, a1 times B into C rows c0, c1 over columns
// [0, n) and k-steps [0, k), n and k positive multiples of 4; B's rows are
// bstride elements apart.
//
//go:noescape
func gemmPairAVX(c0, c1, a0, a1, b *float64, bstride, n, k int)

// roundF32AVX rounds each of p[:n], n a positive multiple of 4, to float32.
//
//go:noescape
func roundF32AVX(p *float64, n int)
