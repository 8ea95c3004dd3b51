package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"shmt/internal/quant"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// Scalar oracles: the per-pixel loops the kernels ran before they were
// register-tiled and row-sliced, kept verbatim (minus the worker fan-out) as
// the reference the tiled kernels must match bit for bit. They read through
// At / atClamp, write a dense result and round it with the reference
// rounders below.

// atClamp reads in[i,j] with replicate boundary handling.
func atClamp(in *tensor.Matrix, i, j int) float64 {
	if i < 0 {
		i = 0
	}
	if i >= in.Rows {
		i = in.Rows - 1
	}
	if j < 0 {
		j = 0
	}
	if j >= in.Cols {
		j = in.Cols - 1
	}
	return in.Data[i*in.RowStride()+j]
}

// refF32 is the FP32 cast one element at a time.
type refF32 struct{}

func (refF32) Round(data []float64) {
	for i := range data {
		data[i] = float64(float32(data[i]))
	}
}
func (refF32) Name() string { return "fp32" }

// refInt8 is the affine INT8 requantisation through the int8 codes.
type refInt8 struct{}

func (refInt8) Round(data []float64) { refInt8Round(data) }
func (refInt8) Name() string         { return "int8" }

func refInt8Round(data []float64) {
	p := refCalibrate(data)
	for i := range data {
		data[i] = p.DequantizeOne(p.QuantizeOne(data[i]))
	}
}

// refCalibrate is quant.CalibrateAffine's scalar scan: Range.Add on every
// element.
func refCalibrate(data []float64) quant.AffineParams {
	r := quant.EmptyRange()
	for _, v := range data {
		r.Add(v)
	}
	return quant.AffineFromRange(r.Lo, r.Hi)
}

func refGEMM(a, b *tensor.Matrix, r Rounder) *tensor.Matrix {
	out := tensor.NewMatrix(a.Rows, b.Cols)
	const blk = 64
	for ii := 0; ii < a.Rows; ii += blk {
		iMax := min(ii+blk, a.Rows)
		for kk := 0; kk < a.Cols; kk += blk {
			kMax := min(kk+blk, a.Cols)
			for i := ii; i < iMax; i++ {
				arow := a.Row(i)
				crow := out.Row(i)
				for k := kk; k < kMax; k++ {
					av := arow[k]
					if av == 0 {
						continue
					}
					brow := b.Row(k)
					for j := range brow {
						crow[j] += av * brow[j]
					}
				}
			}
		}
	}
	r.Round(out.Data)
	return out
}

func refLaplacian(in *tensor.Matrix, r Rounder) *tensor.Matrix {
	out := tensor.NewMatrix(in.Rows, in.Cols)
	for i := 0; i < in.Rows; i++ {
		for j := 0; j < in.Cols; j++ {
			c := in.At(i, j)
			out.Set(i, j, atClamp(in, i-1, j)+atClamp(in, i+1, j)+
				atClamp(in, i, j-1)+atClamp(in, i, j+1)-4*c)
		}
	}
	r.Round(out.Data)
	return out
}

func refSobel(in *tensor.Matrix, r Rounder) *tensor.Matrix {
	out := tensor.NewMatrix(in.Rows, in.Cols)
	for i := 0; i < in.Rows; i++ {
		for j := 0; j < in.Cols; j++ {
			gx := -atClamp(in, i-1, j-1) + atClamp(in, i-1, j+1) +
				-2*atClamp(in, i, j-1) + 2*atClamp(in, i, j+1) +
				-atClamp(in, i+1, j-1) + atClamp(in, i+1, j+1)
			gy := -atClamp(in, i-1, j-1) - 2*atClamp(in, i-1, j) - atClamp(in, i-1, j+1) +
				atClamp(in, i+1, j-1) + 2*atClamp(in, i+1, j) + atClamp(in, i+1, j+1)
			out.Set(i, j, math.Hypot(gx, gy))
		}
	}
	r.Round(out.Data)
	return out
}

func refMeanFilter(in *tensor.Matrix, r Rounder) *tensor.Matrix {
	out := tensor.NewMatrix(in.Rows, in.Cols)
	for i := 0; i < in.Rows; i++ {
		for j := 0; j < in.Cols; j++ {
			var s float64
			for di := -1; di <= 1; di++ {
				for dj := -1; dj <= 1; dj++ {
					s += atClamp(in, i+di, j+dj)
				}
			}
			out.Set(i, j, s/9)
		}
	}
	r.Round(out.Data)
	return out
}

func refConv(in, k *tensor.Matrix, r Rounder) *tensor.Matrix {
	rad := k.Rows / 2
	out := tensor.NewMatrix(in.Rows, in.Cols)
	for i := 0; i < in.Rows; i++ {
		for j := 0; j < in.Cols; j++ {
			var s float64
			for di := -rad; di <= rad; di++ {
				for dj := -rad; dj <= rad; dj++ {
					s += atClamp(in, i+di, j+dj) * k.At(di+rad, dj+rad)
				}
			}
			out.Set(i, j, s)
		}
	}
	r.Round(out.Data)
	return out
}

func refSRAD(in *tensor.Matrix, lambda, q0sqr float64, r Rounder) *tensor.Matrix {
	rows, cols := in.Rows, in.Cols
	c := tensor.NewMatrix(rows, cols)
	dN := tensor.NewMatrix(rows, cols)
	dS := tensor.NewMatrix(rows, cols)
	dW := tensor.NewMatrix(rows, cols)
	dE := tensor.NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			jc := in.At(i, j)
			if jc == 0 {
				jc = 1e-12
			}
			n := atClamp(in, i-1, j) - jc
			s := atClamp(in, i+1, j) - jc
			w := atClamp(in, i, j-1) - jc
			e := atClamp(in, i, j+1) - jc
			dN.Set(i, j, n)
			dS.Set(i, j, s)
			dW.Set(i, j, w)
			dE.Set(i, j, e)

			g2 := (n*n + s*s + w*w + e*e) / (jc * jc)
			l := (n + s + w + e) / jc
			num := 0.5*g2 - 0.0625*l*l
			den := 1 + 0.25*l
			qsqr := num / (den * den)
			cv := 1 / (1 + (qsqr-q0sqr)/(q0sqr*(1+q0sqr)))
			if cv < 0 {
				cv = 0
			}
			if cv > 1 {
				cv = 1
			}
			c.Set(i, j, cv)
		}
	}
	r.Round(c.Data)

	div := tensor.NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			cN := c.At(i, j)
			cW := c.At(i, j)
			cS := atClamp(c, i+1, j)
			cE := atClamp(c, i, j+1)
			div.Set(i, j, cN*dN.At(i, j)+cS*dS.At(i, j)+cW*dW.At(i, j)+cE*dE.At(i, j))
		}
	}
	r.Round(div.Data)

	out := tensor.NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			out.Set(i, j, in.At(i, j)+0.25*lambda*div.At(i, j))
		}
	}
	r.Round(out.Data)
	return out
}

func refHotspot(temp, power *tensor.Matrix, steps int, r Rounder) *tensor.Matrix {
	const dtCap, rx, ry, rz, tamb = 0.1, 1.0, 1.0, 4.0, 80.0
	// The divisors are variables in the kernel; keep them so here, or the
	// compiler folds x/1 away.
	vrx, vry, vrz, vtamb, vdt := rx, ry, rz, tamb, dtCap
	rows, cols := temp.Rows, temp.Cols
	src := temp
	for s := 0; s < steps; s++ {
		delta := tensor.NewMatrix(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				t := src.At(i, j)
				d := power.At(i, j) +
					(atClamp(src, i-1, j)+atClamp(src, i+1, j)-2*t)/vry +
					(atClamp(src, i, j-1)+atClamp(src, i, j+1)-2*t)/vrx +
					(vtamb-t)/vrz
				delta.Set(i, j, d)
			}
		}
		r.Round(delta.Data)
		next := tensor.NewMatrix(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				next.Set(i, j, src.At(i, j)+vdt*delta.At(i, j))
			}
		}
		r.Round(next.Data)
		src = next
	}
	return src
}

func refDCT8x8(in *tensor.Matrix, r Rounder) *tensor.Matrix {
	inS := in.RowStride()
	tmp := tensor.NewMatrix(in.Rows, in.Cols)
	for row := 0; row < in.Rows; row++ {
		baseIn := row * inS
		baseT := row * in.Cols
		for bc := 0; bc < in.Cols; bc += 8 {
			for k := 0; k < 8; k++ {
				var s float64
				for x := 0; x < 8; x++ {
					s += dct8Basis[k][x] * in.Data[baseIn+bc+x]
				}
				tmp.Data[baseT+bc+k] = s
			}
		}
	}
	r.Round(tmp.Data)
	out := tensor.NewMatrix(in.Rows, in.Cols)
	for blk := 0; blk < in.Rows/8; blk++ {
		br := blk * 8
		for col := 0; col < in.Cols; col++ {
			for k := 0; k < 8; k++ {
				var s float64
				for y := 0; y < 8; y++ {
					s += dct8Basis[k][y] * tmp.Data[(br+y)*in.Cols+col]
				}
				out.Data[(br+k)*in.Cols+col] = s
			}
		}
	}
	r.Round(out.Data)
	return out
}

// refBlackScholes is the Black-Scholes kernel's loops as they were before
// they ran in vector lanes, over dense inputs.
func refBlackScholes(s, k *tensor.Matrix, rate, sigma, t float64, r Rounder) *tensor.Matrix {
	n := s.Len()
	sd, kd, volSqrtT := s.Data[:n], k.Data[:n], sigma*math.Sqrt(t)
	d1, d2 := make([]float64, n), make([]float64, n)
	nd1, nd2 := make([]float64, n), make([]float64, n)
	for i := range d1 {
		d1[i] = (math.Log(sd[i]/kd[i]) + (rate+0.5*sigma*sigma)*t) / volSqrtT
	}
	r.Round(d1)
	for i := range d2 {
		d2[i] = d1[i] - volSqrtT
	}
	r.Round(d2)
	for i := range nd1 {
		nd1[i] = refCND(d1[i])
		nd2[i] = refCND(d2[i])
	}
	r.Round(nd1)
	r.Round(nd2)
	out := tensor.NewMatrix(s.Rows, s.Cols)
	expRT := math.Exp(-rate * t)
	for i := range out.Data {
		out.Data[i] = sd[i]*nd1[i] - kd[i]*expRT*nd2[i]
	}
	r.Round(out.Data)
	return out
}

func refCND(d float64) float64 {
	const (
		a1 = 0.31938153
		a2 = -0.356563782
		a3 = 1.781477937
		a4 = -1.821255978
		a5 = 1.330274429
	)
	k := 1 / (1 + 0.2316419*math.Abs(d))
	poly := k * (a1 + k*(a2+k*(a3+k*(a4+k*a5))))
	c := (1 / math.Sqrt(2*math.Pi)) * math.Exp(-0.5*d*d) * poly
	if d > 0 {
		return 1 - c
	}
	return c
}

// oracleRounders pairs each production rounder with its scalar reference.
var oracleRounders = []struct {
	got, ref Rounder
}{
	{Exact{}, Exact{}},
	{F32{}, refF32{}},
	{Int8{}, refInt8{}},
}

// oracleFill draws values that exercise the expression edges: mostly a
// smooth positive field, with exact zeros, negative zeros and sign changes
// sprinkled in (a zero accumulator start, SRAD's jc == 0 guard, GEMM's
// dropped zero skip).
func oracleFill(rows, cols int, rng *rand.Rand) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		switch rng.Intn(12) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = math.Copysign(0, -1)
		case 2:
			m.Data[i] = -3 * rng.Float64()
		default:
			m.Data[i] = 0.1 + 2*rng.Float64()
		}
	}
	return m
}

// strided returns a view of m's values sitting inside a larger tensor whose
// other cells hold sentinel, plus that tensor.
func strided(t *testing.T, m *tensor.Matrix, sentinel float64) (view, base *tensor.Matrix) {
	t.Helper()
	base = tensor.NewMatrix(m.Rows+3, m.Cols+5)
	for i := range base.Data {
		base.Data[i] = sentinel
	}
	view, err := base.View(tensor.Region{Row: 1, Col: 2, Height: m.Rows, Width: m.Cols})
	if err != nil {
		t.Fatal(err)
	}
	if err := view.CopyFrom(m); err != nil {
		t.Fatal(err)
	}
	return view, base
}

func assertSameBits(t *testing.T, name string, got, want *tensor.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := 0; i < got.Rows; i++ {
		g, w := got.Row(i), want.Row(i)
		for j := range g {
			if math.Float64bits(g[j]) != math.Float64bits(w[j]) {
				t.Fatalf("%s: [%d,%d] = %v (%#x), oracle %v (%#x)", name, i, j,
					g[j], math.Float64bits(g[j]), w[j], math.Float64bits(w[j]))
			}
		}
	}
}

// assertSameBitsAnyNaN is assertSameBits, except that a NaN matches any
// NaN: of two NaN operands an x86 add or multiply returns the first one's
// payload, and which operand comes first in a commutative operation is the
// register allocator's choice, not the program's.
func assertSameBitsAnyNaN(t *testing.T, name string, got, want *tensor.Matrix) {
	t.Helper()
	for i := 0; i < got.Rows; i++ {
		g, w := got.Row(i), want.Row(i)
		for j := range g {
			if math.Float64bits(g[j]) != math.Float64bits(w[j]) && !(g[j] != g[j] && w[j] != w[j]) {
				t.Fatalf("%s: [%d,%d] = %v (%#x), oracle %v (%#x)", name, i, j,
					g[j], math.Float64bits(g[j]), w[j], math.Float64bits(w[j]))
			}
		}
	}
}

// checkOracle runs op three ways — dense inputs into a fresh result, strided
// inputs into a fresh result, strided inputs into a strided dst — and
// requires each to equal want bit for bit, with dst's surroundings untouched.
func checkOracle(t *testing.T, name string, op vop.Opcode, inputs []*tensor.Matrix, at map[string]float64, r Rounder, want *tensor.Matrix) {
	t.Helper()
	checkOracleWith(t, assertSameBits, name, op, inputs, at, r, want)
}

// checkOracleWith is checkOracle comparing results with same.
func checkOracleWith(t *testing.T, same func(*testing.T, string, *tensor.Matrix, *tensor.Matrix), name string, op vop.Opcode, inputs []*tensor.Matrix, at map[string]float64, r Rounder, want *tensor.Matrix) {
	t.Helper()
	got, err := Exec(op, inputs, at, r)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	same(t, name+" dense", got, want)

	views := make([]*tensor.Matrix, len(inputs))
	for i, in := range inputs {
		views[i], _ = strided(t, in, math.NaN())
	}
	got, err = Exec(op, views, at, r)
	if err != nil {
		t.Fatalf("%s views: %v", name, err)
	}
	same(t, name+" views", got, want)

	const sentinel = -12345.5
	dst, base := strided(t, tensor.NewMatrix(want.Rows, want.Cols), sentinel)
	for i := 0; i < dst.Rows; i++ {
		row := dst.Row(i)
		for j := range row {
			row[j] = math.NaN() // a kernel must not read what dst held
		}
	}
	got, err = ExecInto(op, views, dst, at, r)
	if err != nil {
		t.Fatalf("%s into view: %v", name, err)
	}
	if got != dst {
		t.Fatalf("%s into view: result is not dst", name)
	}
	same(t, name+" into view", dst, want)
	for i := 0; i < base.Rows; i++ {
		for j := 0; j < base.Cols; j++ {
			inside := i >= 1 && i < 1+dst.Rows && j >= 2 && j < 2+dst.Cols
			if !inside && base.At(i, j) != sentinel {
				t.Fatalf("%s into view: wrote outside dst at [%d,%d]", name, i, j)
			}
		}
	}
}

// stencilShapes hit every edge of the row/column clamping: single row,
// single column, smaller than a 3×3 window, odd sizes, and one large enough
// for interior rows to dominate.
var stencilShapes = [][2]int{{1, 9}, {9, 1}, {1, 1}, {2, 2}, {3, 5}, {5, 7}, {67, 129}}

func TestStencilKernelsMatchScalarOracle(t *testing.T) {
	for _, sh := range stencilShapes {
		for ri, rr := range oracleRounders {
			rng := rand.New(rand.NewSource(int64(100*sh[0] + sh[1])))
			in := oracleFill(sh[0], sh[1], rng)
			in2 := oracleFill(sh[0], sh[1], rng)
			k3 := oracleFill(3, 3, rng)
			k5 := oracleFill(5, 5, rng)
			name := func(op string) string { return fmt.Sprintf("%s/%dx%d/%s", op, sh[0], sh[1], rr.got.Name()) }
			one := []*tensor.Matrix{in}

			checkOracle(t, name("Laplacian"), vop.OpLaplacian, one, nil, rr.got, refLaplacian(in, rr.ref))
			checkOracle(t, name("Sobel"), vop.OpSobel, one, nil, rr.got, refSobel(in, rr.ref))
			checkOracle(t, name("MeanFilter"), vop.OpMeanFilter, one, nil, rr.got, refMeanFilter(in, rr.ref))
			checkOracle(t, name("Conv3"), vop.OpConv, []*tensor.Matrix{in, k3}, nil, rr.got, refConv(in, k3, rr.ref))
			checkOracle(t, name("Conv5"), vop.OpConv, []*tensor.Matrix{in, k5}, nil, rr.got, refConv(in, k5, rr.ref))
			sradAt := map[string]float64{"lambda": 0.4, "q0sqr": 0.07}
			checkOracle(t, name("SRAD"), vop.OpSRAD, one, sradAt, rr.got, refSRAD(in, 0.4, 0.07, rr.ref))
			steps := 1 + ri // one, two and three steps across the rounders
			hotAt := map[string]float64{"steps": float64(steps)}
			checkOracle(t, name("Hotspot"), vop.OpStencil, []*tensor.Matrix{in, in2}, hotAt, rr.got, refHotspot(in, in2, steps, rr.ref))
		}
	}
}

func TestDCT8x8MatchesScalarOracle(t *testing.T) {
	for _, sh := range [][2]int{{8, 8}, {8, 24}, {24, 8}, {16, 40}, {80, 80}} {
		for _, rr := range oracleRounders {
			in := oracleFill(sh[0], sh[1], rand.New(rand.NewSource(int64(sh[0]+sh[1]))))
			name := fmt.Sprintf("DCT8x8/%dx%d/%s", sh[0], sh[1], rr.got.Name())
			checkOracle(t, name, vop.OpDCT8x8, []*tensor.Matrix{in}, nil, rr.got, refDCT8x8(in, rr.ref))
		}
	}
}

// gemmShapes are m, k, n: every remainder of the 4-row × 4-k register tile in both
// directions, degenerate vectors, the shape the engine's row bands run
// (4×256 · 256×256) and 96×80 · 80×64.
var gemmShapes = [][3]int{
	{1, 7, 1}, {1, 1, 9}, {9, 1, 1}, {1, 9, 6}, {6, 9, 1},
	{2, 2, 2}, {3, 5, 5}, {5, 7, 3}, {4, 3, 2}, {7, 4, 7}, {67, 70, 129},
	{4, 256, 256}, {96, 80, 64},
}

func TestGEMMMatchesScalarOracle(t *testing.T) {
	for _, sh := range gemmShapes {
		for _, rr := range oracleRounders {
			rng := rand.New(rand.NewSource(int64(sh[0]*10000 + sh[1]*100 + sh[2])))
			a := oracleFill(sh[0], sh[1], rng) // exact zeros in A: the dropped skip
			b := oracleFill(sh[1], sh[2], rng)
			name := fmt.Sprintf("GEMM/%dx%d·%dx%d/%s", sh[0], sh[1], sh[1], sh[2], rr.got.Name())
			checkOracle(t, name, vop.OpGEMM, []*tensor.Matrix{a, b}, nil, rr.got, refGEMM(a, b, rr.ref))
		}
	}
}

// The scalar loop skipped a zero element of A without reading B's row, so a
// non-finite value in that row never reached the sum. The tiled loop
// multiplies every pair: 0 × Inf and 0 × NaN are NaN, as IEEE 754 (and any
// BLAS) has it. For finite B the two agree bit for bit (the accumulator is
// never −0, so adding a ±0 product is the identity) — that is what
// TestGEMMMatchesScalarOracle pins; this pins the one case that differs.
func TestGEMMZeroTimesNonFiniteIsNaN(t *testing.T) {
	a, _ := tensor.FromSlice(1, 2, []float64{0, 1})
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		b, _ := tensor.FromSlice(2, 2, []float64{bad, 2, 3, 4})
		got, err := Exec(vop.OpGEMM, []*tensor.Matrix{a, b}, nil, Exact{})
		if err != nil {
			t.Fatal(err)
		}
		if !math.IsNaN(got.Data[0]) || got.Data[1] != 4 {
			t.Fatalf("0·%v: got %v, want [NaN 4]", bad, got.Data)
		}
		if ref := refGEMM(a, b, Exact{}); ref.Data[0] != 3 {
			t.Fatalf("oracle should have skipped the zero: %v", ref.Data)
		}
	}
}

// TestRoundersMatchScalarOracle compares the chunked rounders with the
// element-at-a-time references on data that includes every special value.
func TestRoundersMatchScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-320, 0.5, -0.5, 1.5, 2.5, -2.5}
	for _, n := range []int{0, 1, 2, 63, 64, 65, 4095, 4096, 4097, 10000} {
		for _, scale := range []float64{1, 1e-3, 1e6} {
			data := make([]float64, n)
			for i := range data {
				if rng.Intn(10) == 0 {
					data[i] = specials[rng.Intn(len(specials))]
				} else {
					data[i] = scale * rng.NormFloat64()
				}
			}
			for _, rr := range oracleRounders {
				got := append([]float64(nil), data...)
				want := append([]float64(nil), data...)
				rr.got.Round(got)
				rr.ref.Round(want)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s n=%d scale=%g: [%d] %v → %v (%#x), oracle %v (%#x)", rr.got.Name(), n, scale,
							i, data[i], got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}

// TestSubGrainRoundAllocatesNothing: a rounder allocates nothing — DCT8x8
// rounds each 8×8 block, so an allocation would be one per block.
func TestSubGrainRoundAllocatesNothing(t *testing.T) {
	data := make([]float64, 64)
	for _, r := range []Rounder{F32{}, Int8{}} {
		if n := testing.AllocsPerRun(100, func() { r.Round(data) }); n != 0 {
			t.Errorf("%s: %v allocations for 64 elements", r.Name(), n)
		}
	}
}

// FuzzInt8Round: the fused float-only round trip equals calibration followed
// by QuantizeOne / DequantizeOne through the int8 codes, on arbitrary bit
// patterns. The patterns also fill a 19-element slice — two 8-lane
// calibration blocks and four 4-lane cast blocks, each with a scalar tail —
// that runs through both calibration paths, both INT8 paths and both FP32
// paths.
func FuzzInt8Round(f *testing.F) {
	f.Add(math.Float64bits(1), math.Float64bits(2), math.Float64bits(-3), math.Float64bits(0.5))
	f.Add(math.Float64bits(math.NaN()), math.Float64bits(1), math.Float64bits(2), math.Float64bits(3))
	f.Add(math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)), math.Float64bits(1e308), math.Float64bits(-1e308))
	f.Add(math.Float64bits(math.Copysign(0, -1)), uint64(1), uint64(0x7ff0000000000001), math.Float64bits(127.5))
	f.Fuzz(func(t *testing.T, a, b, c, d uint64) {
		data := []float64{math.Float64frombits(a), math.Float64frombits(b), math.Float64frombits(c), math.Float64frombits(d)}
		long := make([]float64, 19)
		for i := range long {
			long[i] = data[(i+i/4)%4] // each pattern in every lane
		}
		check := func(what string, in, got, want []float64) {
			t.Helper()
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s %v: [%d] = %v (%#x), reference %v (%#x)", what, in, i,
						got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
		for _, in := range [][]float64{data, long} {
			got := append([]float64(nil), in...)
			want := append([]float64(nil), in...)
			Int8{}.Round(got)
			refInt8Round(want)
			check("int8", in, got, want)

			if p, q := quant.CalibrateAffine(in), refCalibrate(in); math.Float64bits(p.Scale) != math.Float64bits(q.Scale) || p.ZeroPoint != q.ZeroPoint {
				t.Fatalf("calibration %v: %+v, Range.Add gives %+v", in, p, q)
			}

			got = append(got[:0], in...)
			want = append(want[:0], in...)
			F32{}.Round(got)
			refF32{}.Round(want)
			check("fp32", in, got, want)
		}
	})
}

// optionFill draws spot or strike prices: mostly near the money, with a
// sprinkling of the values where the kernel's math leaves its usual path —
// zero, negative and non-finite prices, subnormals, and ratios that put |d|
// past 38, where exp(−d²/2) turns subnormal and then zero.
func optionFill(rows, cols int, rng *rand.Rand) *tensor.Matrix {
	odd := []float64{0, math.Copysign(0, -1), -1.5, math.NaN(), math.Float64frombits(0x7ff8_0000_dead_beef),
		math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, 1e-310, math.MaxFloat64, 1e30, 1e-30, 1e7, 1e-7}
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		if rng.Intn(6) == 0 {
			m.Data[i] = odd[rng.Intn(len(odd))]
		} else {
			m.Data[i] = 0.5 + rng.Float64()
		}
	}
	return m
}

// TestParabolicPDEMatchesScalarOracle holds the Black-Scholes kernel to its
// scalar loops bit for bit under every rounder, dense and through strided
// views, at the default and at other attributes, on prices that include
// every special value; a NaN matches any NaN.
func TestParabolicPDEMatchesScalarOracle(t *testing.T) {
	shapes := [][2]int{{1, 1}, {1, 3}, {3, 1}, {1, 4}, {2, 2}, {1, 5}, {3, 7}, {5, 9}, {8, 64}, {67, 129}}
	attrSets := []map[string]float64{nil, {"r": 0.05, "sigma": 0.2, "t": 0.5}, {"r": 0, "sigma": 0.01, "t": 2}}
	for _, sh := range shapes {
		for ai, at := range attrSets {
			for _, rr := range oracleRounders {
				rng := rand.New(rand.NewSource(int64(1000*sh[0] + 10*sh[1] + ai)))
				s, k := optionFill(sh[0], sh[1], rng), optionFill(sh[0], sh[1], rng)
				a := attrs(at)
				want := refBlackScholes(s, k, a.get("r", 0.02), a.get("sigma", 0.30), a.get("t", 1), rr.ref)
				name := fmt.Sprintf("ParabolicPDE/%dx%d/attrs%d/%s", sh[0], sh[1], ai, rr.got.Name())
				checkOracleWith(t, assertSameBitsAnyNaN, name, vop.OpParabolicPDE, []*tensor.Matrix{s, k}, at, rr.got, want)
			}
		}
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

// naiveGEMM is C + A·B by the triple loop, each element accumulated in
// ascending k with every product rounded: the order of GEMM's tiles, lanes
// and leftover rows, without refGEMM's zero skip.
func naiveGEMM(a, b, c *tensor.Matrix) *tensor.Matrix {
	out := c.Clone()
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			acc := out.At(i, j)
			for k := 0; k < a.Cols; k++ {
				acc += float64(a.At(i, k) * b.At(k, j))
			}
			out.Set(i, j, acc)
		}
	}
	return out
}

// TestGEMMLanesMatchGoTile runs GEMM over A.Cols and B.Cols at every
// remainder of 4 — the lanes' blocks, the Go tile's columns and k-steps,
// the leftover rows — on values that include every special, dense and as
// strided views. Results must have the triple loop's bits, except that two
// NaNs may differ in payload: where two NaNs meet in one addition the first
// operand's payload survives, and the order of a commutative add's operands
// is the Go compiler's choice.
func TestGEMMLanesMatchGoTile(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 67} {
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 67} {
			for _, rate := range []int{1 << 30, 97, 7} { // finite normal draws only, then few and many specials
				name := fmt.Sprintf("9x%d·%dx%d/rate=%d", k, k, n, rate)
				a, b := specialFill(9, k, rate, rng), specialFill(k, n, rate, rng)
				want := naiveGEMM(a, b, tensor.NewMatrix(9, n))
				checkOracleWith(t, assertSameBitsAnyNaN, name, vop.OpGEMM, []*tensor.Matrix{a, b}, nil, Exact{}, want)
			}
		}
	}
}

func TestRoundF32LanesMatchGoLoop(t *testing.T) {
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
