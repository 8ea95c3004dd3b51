package lanes

import "math"

// The device casts: FP32 rounding, the INT8 affine round trip, and the
// calibration scan that finds the INT8 range.

// RoundF32 rounds every element of data to float32 and back. VCVTPD2PS and
// VCVTPS2PD are the four-wide CVTSD2SS and CVTSS2SD that
// float64(float32(v)) compiles to, rounding by the default MXCSR, so a lane
// gets the scalar cast's bits, NaN payloads included.
func RoundF32(data []float64) { roundF32(data, rowF32.on) }

func roundF32(data []float64, lane bool) {
	i := 0
	if n := len(data) &^ 3; lane && n > 0 {
		roundF32AVX(&data[0], n)
		i = n
	}
	for ; i < len(data); i++ {
		data[i] = float64(float32(data[i]))
	}
}

// RoundTripInt8 replaces every element of data by RoundTripOne at scale
// and zero point zp. A lane runs RoundTripOne's operations in its order —
// divide, round to even, add, clamp, NaN to the zero point, subtract,
// multiply — under the default MXCSR; its clamps are VMINPD and VMAXPD,
// which return the second source when the comparison fails, as Go's
// `if q > 127` does for a NaN.
func RoundTripInt8(data []float64, scale, zp float64) { roundTripInt8(data, scale, zp, rowInt8.on) }

func roundTripInt8(data []float64, scale, zp float64, lane bool) {
	i := 0
	if n := len(data) &^ 3; lane && n > 0 {
		roundTripAVX(&data[0], n, scale, zp)
		i = n
	}
	for ; i < len(data); i++ {
		data[i] = RoundTripOne(data[i], scale, zp)
	}
}

// RoundTripOne quantises v to the affine INT8 code at scale and zero point
// zp and back, without leaving float64: the code is kept as the
// integer-valued float it already is after rounding and clamping. The
// division stays a division — multiplying by a precomputed 1/scale rounds
// differently.
func RoundTripOne(v, scale, zp float64) float64 {
	q := math.RoundToEven(v/scale) + zp
	if q > 127 {
		q = 127
	}
	if q < -128 {
		q = -128
	}
	if v != v {
		q = zp // NaN takes the zero point's code
	}
	return scale * (q - zp)
}

// FiniteRange returns the least and greatest finite element of data, +Inf
// and −Inf if none is. A lane takes eight elements a step in two pairs of
// accumulators, offering +Inf to lo and −Inf to hi where a value is NaN or
// ±Inf. Min and max are exact in any order, so the bounds are the twin's —
// except which zero a bound holds when +0 and −0 both reach it.
func FiniteRange(data []float64) (lo, hi float64) { return finiteRange(data, rowRange.on) }

func finiteRange(data []float64, lane bool) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	i := 0
	if n := len(data) &^ 7; lane && n > 0 {
		lo, hi = finiteRangeAVX(&data[0], n)
		i = n
	}
	for _, v := range data[i:] {
		// NaN fails both comparisons; the MaxFloat64 bounds drop ±Inf.
		if v < lo && v >= -math.MaxFloat64 {
			lo = v
		}
		if v > hi && v <= math.MaxFloat64 {
			hi = v
		}
	}
	return lo, hi
}

func runF32(x, _ []float64, lane bool) []float64 {
	roundF32(x, lane)
	return x
}

func runInt8(x, _ []float64, lane bool) []float64 {
	roundTripInt8(x, 0.037, -5, lane)
	return x
}

// runRange adds +0 to both bounds, which turns a −0 bound into +0.
func runRange(x, _ []float64, lane bool) []float64 {
	lo, hi := finiteRange(x, lane)
	return []float64{lo + 0, hi + 0}
}
