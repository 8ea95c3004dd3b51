package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"shmt/internal/hostcpu"
	"shmt/internal/tensor"
)

// The AVX loops (avx_amd64.s) against the Go loops they shadow, on every
// kind of value, every lane remainder and data that starts off a 32-byte
// boundary. The quant package holds the INT8 round trip and calibration to
// theirs the same way.

func requireAVX(t *testing.T) {
	t.Helper()
	if !hostcpu.AVX {
		t.Skip("no AVX on this host: only the Go loops run")
	}
}

// laneSpecials: NaNs (quiet, signalling, negative), ±Inf, ±0, float64
// subnormals, ±MaxFloat64, values that round to float32 subnormals or
// overflow float32, and float32 rounding ties.
var laneSpecials = []float64{
	math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000000),
	math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -1e-310, math.MaxFloat64, -math.MaxFloat64,
	1e-40, -3e-45, 1e-46, 3.5e38, -1e39, 1 + 0x1p-24, 1 + 3*0x1p-24,
}

// specialFill returns a rows×cols matrix of normal draws, one in every rate
// a special.
func specialFill(rows, cols, rate int, rng *rand.Rand) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		if rng.Intn(rate) == 0 {
			m.Data[i] = laneSpecials[rng.Intn(len(laneSpecials))]
		} else {
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

// TestGEMMLanesMatchGoTile runs the 4-row tile both ways over A.Cols and
// B.Cols at every remainder of 4, dense and as strided views. Results must
// have the same bits, except that two NaNs may differ in payload: where two
// NaNs meet in one addition the first operand's payload survives, and the
// order of a commutative add's operands is the Go compiler's choice.
func TestGEMMLanesMatchGoTile(t *testing.T) {
	requireAVX(t)
	rng := rand.New(rand.NewSource(11))
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 67} {
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 67} {
			for _, rate := range []int{1 << 30, 97, 7} { // finite normal draws only, then few and many specials
				for _, view := range []bool{false, true} {
					name := fmt.Sprintf("8x%d·%dx%d/rate=%d/view=%v", k, k, n, rate, view)
					a, b, c := specialFill(8, k, rate, rng), specialFill(k, n, rate, rng), specialFill(8, n, rate, rng)
					var gotBase *tensor.Matrix
					got, want := c.Clone(), c.Clone()
					if view {
						a, _ = strided(t, a, math.NaN())
						b, _ = strided(t, b, math.NaN())
						got, gotBase = strided(t, c, -12345.5)
					}
					for i := 0; i < 8; i += 4 {
						gemmTile4(a, b, got, i, gemmLanes(a, b, got, i))
						gemmTile4(a, b, want, i, 0)
					}
					for i := 0; i < 8; i++ {
						g, w := got.Row(i), want.Row(i)
						for j := range g {
							if math.Float64bits(g[j]) != math.Float64bits(w[j]) && !(g[j] != g[j] && w[j] != w[j]) {
								t.Fatalf("%s: [%d,%d] = %v (%#x), Go tile %v (%#x)", name, i, j,
									g[j], math.Float64bits(g[j]), w[j], math.Float64bits(w[j]))
							}
						}
					}
					if gotBase != nil {
						for i, v := range gotBase.Data {
							r, col := i/gotBase.Cols, i%gotBase.Cols
							if (r < 1 || r > 8 || col < 2 || col >= 2+n) && v != -12345.5 {
								t.Fatalf("%s: wrote outside the view at [%d,%d]", name, r, col)
							}
						}
					}
				}
			}
		}
	}
}

func TestRoundF32LanesMatchGoLoop(t *testing.T) {
	requireAVX(t)
	rng := rand.New(rand.NewSource(13))
	for n := 0; n <= 67; n++ {
		for off := 0; off < 2; off++ {
			for _, mag := range []float64{1, 1e-40, 1e38, 1e-310} {
				buf := make([]float64, n+off)
				data := buf[off:]
				for i := range data {
					if rng.Intn(4) == 0 {
						data[i] = laneSpecials[rng.Intn(len(laneSpecials))]
					} else {
						data[i] = mag * rng.NormFloat64()
					}
				}
				want := append([]float64(nil), data...)
				refF32{}.Round(want)
				F32{}.Round(data)
				for i := range data {
					if math.Float64bits(data[i]) != math.Float64bits(want[i]) {
						t.Fatalf("n=%d off=%d: [%d] = %v (%#x), Go cast %v (%#x)", n, off, i,
							data[i], math.Float64bits(data[i]), want[i], math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}
