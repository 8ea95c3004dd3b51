package quant

import "math"

// Fixed24Params describes the 24-bit fixed-point representation of an image
// DSP (§2.1: "most image DSPs only support computation in 24-bit"). Values
// quantize onto a signed 24-bit grid scaled to the calibrated range —
// far finer than INT8 (2^23 steps vs 2^7) but still inexact, which places a
// DSP between the FP32 GPU and the INT8 Edge TPU in SHMT's accuracy
// ordering.
type Fixed24Params struct {
	Scale float64
}

// fixed24Max is the largest signed 24-bit magnitude.
const fixed24Max = 1<<23 - 1

// CalibrateFixed24 derives the scale covering the data's absolute range.
// Zero-range input yields scale 1.
func CalibrateFixed24(data []float64) Fixed24Params {
	var absMax float64
	for _, v := range data {
		if a := math.Abs(v); a > absMax && !math.IsInf(a, 0) && !math.IsNaN(a) {
			absMax = a
		}
	}
	if absMax == 0 {
		return Fixed24Params{Scale: 1}
	}
	return Fixed24Params{Scale: absMax / fixed24Max}
}

// QuantizeOne converts one value to its 24-bit code with saturation.
func (p Fixed24Params) QuantizeOne(v float64) int32 {
	if math.IsNaN(v) {
		return 0
	}
	q := math.RoundToEven(v / p.Scale)
	if q > fixed24Max {
		q = fixed24Max
	}
	if q < -fixed24Max-1 {
		q = -fixed24Max - 1
	}
	return int32(q)
}

// DequantizeOne converts a 24-bit code back to a real value.
func (p Fixed24Params) DequantizeOne(q int32) float64 { return float64(q) * p.Scale }
