package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"shmt/internal/lanes"
)

func TestSymmetricCalibration(t *testing.T) {
	p := CalibrateSymmetric([]float64{-3, 1, 2})
	if want := 3.0 / 127; math.Abs(p.Scale-want) > 1e-15 {
		t.Fatalf("scale = %g want %g", p.Scale, want)
	}
}

func TestSymmetricZeroRange(t *testing.T) {
	p := CalibrateSymmetric([]float64{0, 0, 0})
	if p.Scale != 1 {
		t.Fatalf("scale = %g want 1", p.Scale)
	}
	if got := p.RoundTrip([]float64{0, 0}); got[0] != 0 || got[1] != 0 {
		t.Fatal("zeros should round-trip exactly")
	}
}

func TestSymmetricSaturation(t *testing.T) {
	p := Int8Params{Scale: 1}
	if p.QuantizeOne(1000) != 127 {
		t.Fatalf("positive saturation = %d", p.QuantizeOne(1000))
	}
	if p.QuantizeOne(-1000) != -128 {
		t.Fatalf("negative saturation = %d", p.QuantizeOne(-1000))
	}
}

func TestSymmetricNaN(t *testing.T) {
	p := Int8Params{Scale: 1}
	if p.QuantizeOne(math.NaN()) != 0 {
		t.Fatal("NaN should quantize to 0")
	}
}

func TestSymmetricRoundTripBound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		data := make([]float64, 64)
		for i := range data {
			data[i] = (r.Float64() - 0.5) * 20
		}
		p := CalibrateSymmetric(data)
		rt := p.RoundTrip(data)
		bound := p.MaxRoundTripError() + 1e-12
		for i := range data {
			if math.Abs(rt[i]-data[i]) > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAffineCoversRange(t *testing.T) {
	data := []float64{2, 5, 9} // all positive: range must still include 0
	p := CalibrateAffine(data)
	if p.DequantizeOne(p.QuantizeOne(0)) != 0 {
		t.Fatalf("zero not exactly representable: %g", p.DequantizeOne(p.QuantizeOne(0)))
	}
	rt := p.RoundTrip(data)
	for i := range data {
		if math.Abs(rt[i]-data[i]) > p.Scale/2+1e-12 {
			t.Fatalf("affine error %g > step/2 %g", math.Abs(rt[i]-data[i]), p.Scale/2)
		}
	}
}

func TestAffineEmptyAndConstant(t *testing.T) {
	if p := CalibrateAffine(nil); p.Scale != 1 {
		t.Fatalf("empty scale = %g", p.Scale)
	}
	p := CalibrateAffine([]float64{5, 5, 5})
	rt := p.RoundTrip([]float64{5})
	if math.Abs(rt[0]-5) > p.Scale/2+1e-12 {
		t.Fatalf("constant round trip = %g", rt[0])
	}
}

// A non-finite value is skipped by calibration wherever it sits — first
// included, where it used to seed the range and poison the scale — and
// round-trips like any out-of-range value: NaN to zero, ±Inf saturated.
func TestAffineIgnoresNonFinite(t *testing.T) {
	want := CalibrateAffine([]float64{1, 2, 3})
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for pos, data := range map[string][]float64{
			"first":  {bad, 1, 2, 3},
			"middle": {1, bad, 2, 3},
			"last":   {1, 2, 3, bad},
		} {
			p := CalibrateAffine(data)
			if p != want {
				t.Fatalf("%v %s: calibrated %+v, want %+v", bad, pos, p, want)
			}
			rt := p.RoundTrip(data)
			for i, v := range data {
				switch {
				case math.IsNaN(v):
					if rt[i] != 0 {
						t.Fatalf("%v %s: NaN round-trips to %g, want 0", bad, pos, rt[i])
					}
				case math.IsInf(v, 0):
					if sat := p.DequantizeOne(p.QuantizeOne(math.Copysign(1e300, v))); rt[i] != sat {
						t.Fatalf("%v %s: round-trips to %g, want saturation %g", bad, pos, rt[i], sat)
					}
				default:
					if math.Abs(rt[i]-v) > p.Scale/2+1e-12 {
						t.Fatalf("%v %s: %g round-trips to %g", bad, pos, v, rt[i])
					}
				}
			}
		}
		if p := CalibrateAffine([]float64{bad, bad, bad}); p != (AffineParams{Scale: 1}) {
			t.Fatalf("all %v: calibrated %+v, want Scale 1", bad, p)
		}
	}
}

// The parameters are usable whatever the range: a spread that overflows
// float64 and one narrower than 255 subnormal steps both calibrate to a
// finite positive scale.
func TestAffineFromRangeIsTotal(t *testing.T) {
	for _, r := range [][2]float64{
		{-math.MaxFloat64, math.MaxFloat64},
		{0, math.SmallestNonzeroFloat64},
		{-math.SmallestNonzeroFloat64, 100 * math.SmallestNonzeroFloat64},
		{EmptyRange().Lo, EmptyRange().Hi},
	} {
		p := AffineFromRange(r[0], r[1])
		if !(p.Scale > 0) || math.IsInf(p.Scale, 0) || p.ZeroPoint < -128 || p.ZeroPoint > 127 {
			t.Fatalf("range %v: %+v", r, p)
		}
	}
}

// RoundTripInPlace is the reference round trip through the int8 codes, bit
// for bit, on every kind of value.
func TestAffineRoundTripInPlaceMatchesReference(t *testing.T) {
	data := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 126.5, 127.5, -128.5, 1e-3, -7.25, 33}
	for _, p := range []AffineParams{
		CalibrateAffine(data), CalibrateAffine(data[7:]), CalibrateAffine([]float64{-1, 1e-3}),
		{Scale: 1}, {Scale: 1, ZeroPoint: -128}, {Scale: 0.037, ZeroPoint: 127}, {Scale: 1e-310, ZeroPoint: 5},
	} {
		want := p.RoundTrip(data)
		got := append([]float64(nil), data...)
		p.RoundTripInPlace(got)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%+v: %v → %v (%#x), reference %v (%#x)", p, data[i],
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

func TestAffineRoundTripBound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		data := make([]float64, 48)
		for i := range data {
			data[i] = r.Float64()*100 - 30
		}
		p := CalibrateAffine(data)
		rt := p.RoundTrip(data)
		for i := range data {
			if math.Abs(rt[i]-data[i]) > p.Scale/2+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// ---- The codecs only tests use: symmetric INT8 and the slice round trips ----

// Int8Params describes a symmetric INT8 quantization: real = scale * q.
type Int8Params struct {
	Scale float64
}

// CalibrateSymmetric derives symmetric INT8 parameters from the data range,
// mapping max(|min|,|max|) to 127. A zero-range input yields scale 1 so that
// round-tripping zeros is exact.
func CalibrateSymmetric(data []float64) Int8Params {
	var absMax float64
	for _, v := range data {
		if a := math.Abs(v); a > absMax && !math.IsInf(a, 0) && !math.IsNaN(a) {
			absMax = a
		}
	}
	if absMax == 0 {
		return Int8Params{Scale: 1}
	}
	return Int8Params{Scale: absMax / 127}
}

// QuantizeOne converts one value.
func (p Int8Params) QuantizeOne(v float64) int8 {
	if math.IsNaN(v) {
		return 0
	}
	q := math.RoundToEven(v / p.Scale)
	if q > 127 {
		q = 127
	}
	if q < -128 {
		q = -128
	}
	return int8(q)
}

// DequantizeOne converts one code back to a real value.
func (p Int8Params) DequantizeOne(q int8) float64 { return float64(q) * p.Scale }

// RoundTrip pushes data through quantize→dequantize, the value degradation a
// tensor suffers crossing onto the Edge TPU. The maximum element-wise error
// is bounded by Scale/2 (plus saturation for outliers).
func (p Int8Params) RoundTrip(data []float64) []float64 {
	out := make([]float64, len(data))
	for i, v := range data {
		out[i] = p.DequantizeOne(p.QuantizeOne(v))
	}
	return out
}

// MaxRoundTripError returns the worst-case |x - roundtrip(x)| for in-range
// inputs: half a quantization step.
func (p Int8Params) MaxRoundTripError() float64 { return p.Scale / 2 }

// RoundTrip pushes data through affine quantize→dequantize.
func (p AffineParams) RoundTrip(data []float64) []float64 {
	out := make([]float64, len(data))
	for i, v := range data {
		out[i] = p.DequantizeOne(p.QuantizeOne(v))
	}
	return out
}

// laneSpecials are the values a lane must treat as the scalar loop does:
// NaNs (quiet, signalling, negative), ±Inf, ±0, subnormals, ±MaxFloat64 and
// quotients halfway between two codes at Scale 1 and 0.25.
var laneSpecials = []float64{
	math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000000),
	math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310, -3e-320,
	math.MaxFloat64, -math.MaxFloat64,
	0.5, -0.5, 1.5, 2.5, -2.5, 126.5, 127.5, -128.5, 0.125, -0.375, 31.875,
}

// laneData returns n values: a special in one of four, else a normal draw
// times mag or a quotient halfway between codes at Scale 0.25.
func laneData(rng *rand.Rand, n int, mag float64) []float64 {
	data := make([]float64, n)
	for i := range data {
		switch rng.Intn(8) {
		case 0, 1:
			data[i] = laneSpecials[rng.Intn(len(laneSpecials))]
		case 2:
			data[i] = (float64(rng.Intn(300)-150) + 0.5) * 0.25
		default:
			data[i] = mag * rng.NormFloat64()
		}
	}
	return data
}

// offset returns a copy of data that starts at an odd element of its
// backing array when off is 1.
func offset(data []float64, off int) []float64 {
	buf := make([]float64, len(data)+off)
	copy(buf[off:], data)
	return buf[off:]
}

func sameParams(a, b AffineParams) bool {
	return math.Float64bits(a.Scale) == math.Float64bits(b.Scale) && a.ZeroPoint == b.ZeroPoint
}

func TestRoundTripLanesMatchRoundTripOne(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n <= 67; n++ {
		for off := 0; off < 2; off++ {
			for _, mag := range []float64{1, 1e-3, 1e300} {
				data := laneData(rng, n, mag)
				for _, p := range []AffineParams{
					CalibrateAffine(data), {Scale: 1}, {Scale: 0.25, ZeroPoint: 3},
					{Scale: 1e-310, ZeroPoint: 127}, {Scale: math.MaxFloat64, ZeroPoint: -128},
					// Parameters no calibration yields; the lanes still match.
					{Scale: 0}, {Scale: -0.5, ZeroPoint: -7}, {Scale: math.NaN(), ZeroPoint: 1},
					{Scale: math.Inf(1), ZeroPoint: 2}, {Scale: 3, ZeroPoint: 1000},
				} {
					got := offset(data, off)
					p.RoundTripInPlace(got)
					for i, v := range data {
						if w := p.RoundTripOne(v); math.Float64bits(got[i]) != math.Float64bits(w) {
							t.Fatalf("n=%d off=%d %+v: [%d] %v → %v (%#x), RoundTripOne %v (%#x)", n, off, p,
								i, v, got[i], math.Float64bits(got[i]), w, math.Float64bits(w))
						}
					}
				}
			}
		}
	}
}

func TestCalibrateLanesMatchRangeAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	nonFinite := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Float64frombits(0x7ff0000000000001)}
	for n := 0; n <= 67; n++ {
		for off := 0; off < 2; off++ {
			for _, mag := range []float64{1, 1e-310, 1e300} {
				data := offset(laneData(rng, n, mag), off)
				if n%5 == 0 { // nothing finite, or one finite value among NaN and ±Inf
					for i := range data {
						data[i] = nonFinite[rng.Intn(len(nonFinite))]
					}
					if n%10 == 0 && n > 0 {
						data[rng.Intn(n)] = mag * rng.NormFloat64()
					}
				}
				ref := EmptyRange()
				for _, v := range data {
					ref.Add(v)
				}
				if lo, hi := lanes.FiniteRange(data); lo != ref.Lo || hi != ref.Hi { // == : the sign of a zero bound may differ
					t.Fatalf("n=%d off=%d: range [%v, %v], Range.Add %v (data %v)", n, off, lo, hi, ref, data)
				}
				if got, want := CalibrateAffine(data), AffineFromRange(ref.Lo, ref.Hi); !sameParams(got, want) {
					t.Fatalf("n=%d off=%d: calibrated %+v, Range.Add gives %+v (data %v)", n, off, got, want, data)
				}
			}
		}
	}
}

// Where +0 and −0 both reach a bound, Range.Add keeps the first and the
// vector scan either one. AffineFromRange must give the same scale and zero
// point for both signs, against every other bound.
func TestAffineIgnoresZeroSign(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, o := range []float64{0, negZero, 1, -1, 3.5, -1e-300, 1e-300, math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1)} {
		if a, b := AffineFromRange(0, o), AffineFromRange(negZero, o); !sameParams(a, b) {
			t.Errorf("lo ±0, hi %v: %+v and %+v", o, a, b)
		}
		if a, b := AffineFromRange(o, 0), AffineFromRange(o, negZero); !sameParams(a, b) {
			t.Errorf("lo %v, hi ±0: %+v and %+v", o, a, b)
		}
	}
}
