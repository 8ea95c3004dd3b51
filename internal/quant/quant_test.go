package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
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

func TestFP16KnownValues(t *testing.T) {
	cases := []struct {
		f    float64
		bits FP16
	}{
		{0, 0x0000},
		{1, 0x3c00},
		{-2, 0xc000},
		{0.5, 0x3800},
		{65504, 0x7bff},         // max finite half
		{65536, 0x7c00},         // overflow -> +Inf
		{-65536, 0xfc00},        // overflow -> -Inf
		{6.1035156e-05, 0x0400}, // smallest normal
	}
	for _, c := range cases {
		if got := FP16FromFloat(c.f); got != c.bits {
			t.Errorf("FP16FromFloat(%g) = %#04x want %#04x", c.f, uint16(got), uint16(c.bits))
		}
	}
}

func TestFP16SpecialValues(t *testing.T) {
	if !math.IsInf(FP16FromFloat(math.Inf(1)).Float(), 1) {
		t.Fatal("+Inf lost")
	}
	if !math.IsInf(FP16FromFloat(math.Inf(-1)).Float(), -1) {
		t.Fatal("-Inf lost")
	}
	if !math.IsNaN(FP16FromFloat(math.NaN()).Float()) {
		t.Fatal("NaN lost")
	}
	negZero := FP16FromFloat(math.Copysign(0, -1))
	if negZero != 0x8000 {
		t.Fatalf("-0 encodes to %#04x", uint16(negZero))
	}
}

func TestFP16Subnormals(t *testing.T) {
	// Smallest positive subnormal: 2^-24.
	tiny := math.Pow(2, -24)
	h := FP16FromFloat(tiny)
	if h != 0x0001 {
		t.Fatalf("2^-24 encodes to %#04x want 0x0001", uint16(h))
	}
	if h.Float() != tiny {
		t.Fatalf("subnormal decodes to %g want %g", h.Float(), tiny)
	}
	// Underflow to zero.
	if FP16FromFloat(math.Pow(2, -26)) != 0 {
		t.Fatal("2^-26 should underflow to +0")
	}
}

// Property: encode->decode->encode is stable (idempotent after one trip).
func TestFP16Idempotent(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) {
			return true
		}
		once := FP16FromFloat(x).Float()
		twice := FP16FromFloat(once).Float()
		return once == twice || (math.IsNaN(once) && math.IsNaN(twice))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: FP16 relative round-trip error for normal-range values is within
// the half-precision epsilon bound (2^-11).
func TestFP16RelativeError(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := (r.Float64()*2 - 1) * 1000
		if math.Abs(x) < 1e-3 {
			return true
		}
		y := FP16FromFloat(x).Float()
		return math.Abs(y-x)/math.Abs(x) <= math.Pow(2, -11)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestFloat32RoundTrip(t *testing.T) {
	in := []float64{1.0 / 3.0, math.Pi, -1e-10}
	out := Float32RoundTrip(in)
	for i := range in {
		if out[i] != float64(float32(in[i])) {
			t.Fatalf("fp32 round trip mismatch at %d", i)
		}
	}
}

func TestFP16RoundTripSlice(t *testing.T) {
	in := []float64{0.1, 100, -7}
	out := FP16RoundTrip(in)
	for i := range in {
		if out[i] != FP16FromFloat(in[i]).Float() {
			t.Fatalf("slice round trip mismatch at %d", i)
		}
	}
}
