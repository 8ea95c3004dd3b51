package quant

import (
	"math"
	"math/rand"
	"testing"

	"shmt/internal/hostcpu"
)

// The AVX loops (avx_amd64.s) against the Go loops they shadow, by
// Float64bits, on every kind of value, every lane remainder and slices that
// start off a 32-byte boundary.

func requireAVX(t *testing.T) {
	t.Helper()
	if !hostcpu.AVX {
		t.Skip("no AVX on this host: only the Go loops run")
	}
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
	requireAVX(t)
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
	requireAVX(t)
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
				r, k := finiteRangeLanes(data)
				for _, v := range data[k:] {
					r.Add(v)
				}
				if k != n&^7 || r.Lo != ref.Lo || r.Hi != ref.Hi { // == : the sign of a zero bound may differ
					t.Fatalf("n=%d off=%d: lanes %d, range %v, Range.Add %v (data %v)", n, off, k, r, ref, data)
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
