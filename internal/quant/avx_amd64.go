package quant

import "shmt/internal/hostcpu"

// finiteRangeLanes is CalibrateAffine's scan on AVX hosts: the Range of the
// first len(data)&^7 elements, eight at a time, and how many it covered (none
// without AVX; the caller adds the rest). A lane skips NaN and ±Inf as
// Range.Add does, and min/max are exact, so the bounds are Range.Add's —
// except which zero a bound holds when +0 and −0 both reach it, a sign
// AffineFromRange never reads (TestAffineIgnoresZeroSign).
func finiteRangeLanes(data []float64) (Range, int) {
	n := len(data) &^ 7
	if !hostcpu.AVX || n == 0 {
		return EmptyRange(), 0
	}
	lo, hi := finiteRangeAVX(&data[0], n)
	return Range{Lo: lo, Hi: hi}, n
}

// roundTripLanes is RoundTripInPlace on AVX hosts: RoundTripOne, four lanes
// at a time, on the first len(data)&^3 elements, and how many it covered
// (none without AVX). Each lane runs RoundTripOne's operations in its order
// — divide, round to even, add, clamp, NaN to the zero point, subtract,
// multiply — under the default MXCSR, so the bits are RoundTripOne's.
func (p AffineParams) roundTripLanes(data []float64) int {
	n := len(data) &^ 3
	if !hostcpu.AVX || n == 0 {
		return 0
	}
	roundTripAVX(&data[0], n, p.Scale, float64(p.ZeroPoint))
	return n
}

// finiteRangeAVX returns the least and greatest finite value of p[:n], n a
// positive multiple of 8; +Inf and −Inf if none is finite.
//
//go:noescape
func finiteRangeAVX(p *float64, n int) (lo, hi float64)

// roundTripAVX replaces each of p[:n], n a positive multiple of 4, by its
// affine round trip at scale and zero point zp.
//
//go:noescape
func roundTripAVX(p *float64, n int, scale, zp float64)
