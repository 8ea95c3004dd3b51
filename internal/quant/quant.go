// Package quant implements the reduced-precision data representations of the
// simulated accelerators: affine INT8 quantization (Edge TPU)
// and 24-bit fixed point (the DSP).
//
// The paper's runtime system "perform[s] data type casting through the
// desired quantization method before distributing the input data" and
// restores the result precision afterwards (§3.3.2); this package is that
// casting layer. Because quantization here is real arithmetic, the quality
// degradation SHMT's QAWS policy manages (Figs. 7–9) is measured, not
// modelled.
package quant

import (
	"math"

	"shmt/internal/lanes"
)

// AffineParams describes an asymmetric (affine) INT8 quantization:
// real = scale * (q - zeroPoint). TFLite post-training quantization uses this
// form for activations.
type AffineParams struct {
	Scale     float64
	ZeroPoint int
}

// CalibrateAffine derives affine parameters covering [min,max] of the data's
// finite values; NaN and ±Inf are skipped wherever they sit. No finite value
// at all calibrates like an all-zero tensor (Scale 1). The scan is
// lanes.FiniteRange, Range.Add over every element.
func CalibrateAffine(data []float64) AffineParams {
	return AffineFromRange(lanes.FiniteRange(data))
}

// Range is a running [Lo, Hi] over the finite values added to it. Callers
// whose elements are not one slice (a channel strided through a tensor) fold
// it element by element and hand the bounds to AffineFromRange.
type Range struct{ Lo, Hi float64 }

// EmptyRange returns the range no value has been added to: Lo > Hi.
func EmptyRange() Range { return Range{Lo: math.Inf(1), Hi: math.Inf(-1)} }

// Add widens the range to cover v, unless v is NaN or ±Inf.
func (r *Range) Add(v float64) {
	// NaN fails both comparisons; the MaxFloat64 bounds drop ±Inf.
	if v < r.Lo && v >= -math.MaxFloat64 {
		r.Lo = v
	}
	if v > r.Hi && v <= math.MaxFloat64 {
		r.Hi = v
	}
}

// AffineFromRange derives the affine parameters covering [lo, hi]. The bounds
// of an EmptyRange (lo > hi) yield Scale 1.
func AffineFromRange(lo, hi float64) AffineParams {
	// The representable range must include zero so that padding quantizes
	// exactly (TFLite convention).
	if lo > 0 {
		lo = 0
	}
	if hi < 0 {
		hi = 0
	}
	if hi == lo {
		return AffineParams{Scale: 1, ZeroPoint: 0}
	}
	scale := (hi - lo) / 255
	switch {
	case scale == 0: // narrower than 255 subnormal steps: as good as zero-range
		return AffineParams{Scale: 1, ZeroPoint: 0}
	case math.IsInf(scale, 0): // hi - lo overflowed; the quotient itself fits
		scale = hi/255 - lo/255
	}
	// Scale is now finite and positive, so v/Scale is NaN only for a NaN v
	// and every code QuantizeOne converts to int8 is in range.
	zp := int(math.RoundToEven(-128 - lo/scale))
	if zp < -128 {
		zp = -128
	}
	if zp > 127 {
		zp = 127
	}
	return AffineParams{Scale: scale, ZeroPoint: zp}
}

// QuantizeOne converts one value.
func (p AffineParams) QuantizeOne(v float64) int8 {
	if math.IsNaN(v) {
		return int8(p.ZeroPoint)
	}
	q := math.RoundToEven(v/p.Scale) + float64(p.ZeroPoint)
	if q > 127 {
		q = 127
	}
	if q < -128 {
		q = -128
	}
	return int8(q)
}

// DequantizeOne converts one affine code back to a real value.
func (p AffineParams) DequantizeOne(q int8) float64 {
	return p.Scale * float64(int(q)-p.ZeroPoint)
}

// RoundTripOne is DequantizeOne(QuantizeOne(v)), bit for bit, without
// leaving float64 (lanes.RoundTripOne).
func (p AffineParams) RoundTripOne(v float64) float64 {
	return lanes.RoundTripOne(v, p.Scale, float64(p.ZeroPoint))
}

// RoundTripInPlace applies RoundTripOne to every element of data
// (lanes.RoundTripInt8).
func (p AffineParams) RoundTripInPlace(data []float64) {
	lanes.RoundTripInt8(data, p.Scale, float64(p.ZeroPoint))
}
