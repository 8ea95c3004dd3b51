package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFixed24Calibration(t *testing.T) {
	p := CalibrateFixed24([]float64{-3, 1, 2})
	if want := 3.0 / fixed24Max; math.Abs(p.Scale-want) > 1e-18 {
		t.Fatalf("scale = %g want %g", p.Scale, want)
	}
	if CalibrateFixed24(nil).Scale != 1 {
		t.Fatal("empty calibration should default")
	}
	if CalibrateFixed24([]float64{0}).Scale != 1 {
		t.Fatal("zero-range calibration should default")
	}
}

func TestFixed24Saturation(t *testing.T) {
	p := Fixed24Params{Scale: 1}
	if p.QuantizeOne(1e9) != fixed24Max {
		t.Fatal("positive saturation wrong")
	}
	if p.QuantizeOne(-1e9) != -fixed24Max-1 {
		t.Fatal("negative saturation wrong")
	}
	if p.QuantizeOne(math.NaN()) != 0 {
		t.Fatal("NaN should quantize to 0")
	}
}

func TestFixed24RoundTripBound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		data := make([]float64, 32)
		for i := range data {
			data[i] = (r.Float64() - 0.5) * 2000
		}
		p := CalibrateFixed24(data)
		rt := p.RoundTrip(data)
		bound := p.MaxRoundTripError() + 1e-15
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

func TestFixed24MuchFinerThanInt8(t *testing.T) {
	data := make([]float64, 100)
	for i := range data {
		data[i] = float64(i) / 7
	}
	p24 := CalibrateFixed24(data)
	p8 := CalibrateAffine(data)
	if p24.MaxRoundTripError()*1000 > p8.Scale/2 {
		t.Fatalf("24-bit grid (%g) should be orders finer than INT8 (%g)",
			p24.MaxRoundTripError(), p8.Scale/2)
	}
}

// ---- The slice round trip only tests use ----

// RoundTrip pushes data through the 24-bit grid.
func (p Fixed24Params) RoundTrip(data []float64) []float64 {
	out := make([]float64, len(data))
	for i, v := range data {
		out[i] = p.DequantizeOne(p.QuantizeOne(v))
	}
	return out
}

// MaxRoundTripError is half a quantization step for in-range values.
func (p Fixed24Params) MaxRoundTripError() float64 { return p.Scale / 2 }
