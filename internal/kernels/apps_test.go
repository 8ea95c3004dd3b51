package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"shmt/internal/lanes"

	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// ---- Black-Scholes ----

// cnd is the kernel's cumulative normal at one point.
func cnd(d float64) float64 {
	out := []float64{0}
	lanes.CND(out, []float64{d})
	return out[0]
}

func TestBlackScholesKnownValue(t *testing.T) {
	// S=100, K=100, r=0.05, sigma=0.2, t=1 -> call ~ 10.4506 (textbook value).
	s := tensor.NewMatrix(1, 1)
	s.Data[0] = 100
	k := tensor.NewMatrix(1, 1)
	k.Data[0] = 100
	out, err := Exec(vop.OpParabolicPDE, []*tensor.Matrix{s, k},
		map[string]float64{"r": 0.05, "sigma": 0.2, "t": 1}, Exact{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Data[0]-10.4506) > 0.01 {
		t.Fatalf("call price = %g want ~10.4506", out.Data[0])
	}
}

func TestBlackScholesDeepInAndOutOfMoney(t *testing.T) {
	mk := func(v float64) *tensor.Matrix {
		m := tensor.NewMatrix(1, 1)
		m.Data[0] = v
		return m
	}
	attrs := map[string]float64{"r": 0.0, "sigma": 0.1, "t": 0.5}
	deepITM, _ := Exec(vop.OpParabolicPDE, []*tensor.Matrix{mk(200), mk(100)}, attrs, Exact{})
	if math.Abs(deepITM.Data[0]-100) > 0.5 {
		t.Fatalf("deep ITM call = %g want ~100 (intrinsic)", deepITM.Data[0])
	}
	deepOTM, _ := Exec(vop.OpParabolicPDE, []*tensor.Matrix{mk(50), mk(100)}, attrs, Exact{})
	if deepOTM.Data[0] > 0.01 {
		t.Fatalf("deep OTM call = %g want ~0", deepOTM.Data[0])
	}
}

func TestBlackScholesMonotoneInSpot(t *testing.T) {
	f := func(seed int64) bool {
		m := seed % 100
		if m < 0 {
			m = -m
		}
		s1 := 50 + float64(m)
		s2 := s1 + 10
		mk := func(v float64) *tensor.Matrix {
			m := tensor.NewMatrix(1, 1)
			m.Data[0] = v
			return m
		}
		k := mk(100)
		a, err1 := Exec(vop.OpParabolicPDE, []*tensor.Matrix{mk(s1), k}, nil, Exact{})
		b, err2 := Exec(vop.OpParabolicPDE, []*tensor.Matrix{mk(s2), k}, nil, Exact{})
		return err1 == nil && err2 == nil && b.Data[0] >= a.Data[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCNDProperties(t *testing.T) {
	if math.Abs(cnd(0)-0.5) > 1e-6 {
		t.Fatalf("cnd(0) = %g", cnd(0))
	}
	if cnd(6) < 0.999 || cnd(-6) > 0.001 {
		t.Fatalf("cnd tails wrong: %g / %g", cnd(6), cnd(-6))
	}
	// Symmetry: cnd(-x) = 1 - cnd(x).
	for _, x := range []float64{0.3, 1.1, 2.5} {
		if math.Abs(cnd(-x)-(1-cnd(x))) > 1e-6 {
			t.Fatalf("cnd symmetry broken at %g", x)
		}
	}
}

// ---- Image kernels ----

func TestSobelOfConstantIsZero(t *testing.T) {
	in := tensor.NewMatrix(8, 8)
	for i := range in.Data {
		in.Data[i] = 42
	}
	out, err := Exec(vop.OpSobel, []*tensor.Matrix{in}, nil, Exact{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out.Data {
		if v != 0 {
			t.Fatalf("sobel[%d] = %g want 0", i, v)
		}
	}
}

func TestSobelVerticalEdge(t *testing.T) {
	in := tensor.NewMatrix(8, 8)
	for i := 0; i < 8; i++ {
		for j := 4; j < 8; j++ {
			in.Set(i, j, 1)
		}
	}
	out, _ := Exec(vop.OpSobel, []*tensor.Matrix{in}, nil, Exact{})
	// Gradient magnitude peaks along the edge columns 3 and 4.
	if out.At(4, 3) == 0 || out.At(4, 4) == 0 {
		t.Fatal("edge not detected")
	}
	if out.At(4, 0) != 0 {
		t.Fatal("flat region should be zero")
	}
}

func TestLaplacianOfLinearRampIsZero(t *testing.T) {
	in := tensor.NewMatrix(8, 8)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			in.Set(i, j, float64(2*i+3*j))
		}
	}
	out, err := Exec(vop.OpLaplacian, []*tensor.Matrix{in}, nil, Exact{})
	if err != nil {
		t.Fatal(err)
	}
	// The interior of a linear ramp has zero Laplacian (boundaries replicate).
	for i := 1; i < 7; i++ {
		for j := 1; j < 7; j++ {
			if math.Abs(out.At(i, j)) > 1e-12 {
				t.Fatalf("laplacian(%d,%d) = %g", i, j, out.At(i, j))
			}
		}
	}
}

func TestMeanFilterConstantPreserved(t *testing.T) {
	in := tensor.NewMatrix(6, 6)
	for i := range in.Data {
		in.Data[i] = 7
	}
	out, _ := Exec(vop.OpMeanFilter, []*tensor.Matrix{in}, nil, Exact{})
	for i, v := range out.Data {
		if math.Abs(v-7) > 1e-12 {
			t.Fatalf("mf[%d] = %g", i, v)
		}
	}
}

func TestMeanFilterAverages(t *testing.T) {
	in := tensor.NewMatrix(3, 3)
	in.Set(1, 1, 9)
	out, _ := Exec(vop.OpMeanFilter, []*tensor.Matrix{in}, nil, Exact{})
	if math.Abs(out.At(1, 1)-1) > 1e-12 {
		t.Fatalf("center = %g want 1", out.At(1, 1))
	}
}

func TestConvIdentityKernel(t *testing.T) {
	in := randMatrix(6, 6, 5, -1, 1)
	k := tensor.NewMatrix(3, 3)
	k.Set(1, 1, 1)
	out, err := Exec(vop.OpConv, []*tensor.Matrix{in, k}, nil, Exact{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(in) {
		t.Fatal("identity convolution changed the image")
	}
}

func TestConvBoxKernelMatchesMeanFilter(t *testing.T) {
	in := randMatrix(8, 8, 6, 0, 1)
	k := tensor.NewMatrix(3, 3)
	for i := range k.Data {
		k.Data[i] = 1.0 / 9
	}
	conv, _ := Exec(vop.OpConv, []*tensor.Matrix{in, k}, nil, Exact{})
	mf, _ := Exec(vop.OpMeanFilter, []*tensor.Matrix{in}, nil, Exact{})
	if maxAbsDiff(conv.Data, mf.Data) > 1e-12 {
		t.Fatal("box convolution should equal mean filter")
	}
}

// ---- SRAD ----

func TestSRADConstantImageUnchanged(t *testing.T) {
	in := tensor.NewMatrix(8, 8)
	for i := range in.Data {
		in.Data[i] = 100
	}
	out, err := Exec(vop.OpSRAD, []*tensor.Matrix{in}, map[string]float64{"lambda": 0.5, "q0sqr": 0.05}, Exact{})
	if err != nil {
		t.Fatal(err)
	}
	if maxAbsDiff(out.Data, in.Data) > 1e-9 {
		t.Fatal("constant image should be a fixed point of SRAD")
	}
}

func TestSRADReducesSpeckleVariance(t *testing.T) {
	in := randMatrix(32, 32, 8, 90, 110) // noisy but positive intensities
	out, err := Exec(vop.OpSRAD, []*tensor.Matrix{in}, map[string]float64{"lambda": 0.5, "q0sqr": 0.05}, Exact{})
	if err != nil {
		t.Fatal(err)
	}
	vin := tensor.Summarize(in.Data).Std
	vout := tensor.Summarize(out.Data).Std
	if vout >= vin {
		t.Fatalf("SRAD did not smooth: std %g -> %g", vin, vout)
	}
}

// ---- Hotspot ----

func TestHotspotEquilibrium(t *testing.T) {
	temp := tensor.NewMatrix(8, 8)
	for i := range temp.Data {
		temp.Data[i] = 80 // equals ambient default
	}
	power := tensor.NewMatrix(8, 8)
	out, err := Exec(vop.OpStencil, []*tensor.Matrix{temp, power}, nil, Exact{})
	if err != nil {
		t.Fatal(err)
	}
	if maxAbsDiff(out.Data, temp.Data) > 1e-12 {
		t.Fatal("ambient-temperature grid with no power should be steady")
	}
}

func TestHotspotHeatsUnderPower(t *testing.T) {
	temp := tensor.NewMatrix(8, 8)
	for i := range temp.Data {
		temp.Data[i] = 80
	}
	power := tensor.NewMatrix(8, 8)
	power.Set(4, 4, 10)
	out, _ := Exec(vop.OpStencil, []*tensor.Matrix{temp, power}, nil, Exact{})
	if out.At(4, 4) <= 80 {
		t.Fatalf("powered cell should heat: %g", out.At(4, 4))
	}
	if out.At(0, 0) != 80 {
		t.Fatal("unpowered far cell should stay at ambient")
	}
}

func TestHotspotCoolsTowardAmbient(t *testing.T) {
	temp := tensor.NewMatrix(4, 4)
	for i := range temp.Data {
		temp.Data[i] = 100 // hotter than ambient 80
	}
	power := tensor.NewMatrix(4, 4)
	out, _ := Exec(vop.OpStencil, []*tensor.Matrix{temp, power}, nil, Exact{})
	for i, v := range out.Data {
		if v >= 100 || v < 80 {
			t.Fatalf("cell %d = %g, want cooling toward 80", i, v)
		}
	}
}

// ---- GEMM ----

func TestGEMMAgainstNaive(t *testing.T) {
	a := randMatrix(17, 23, 1, -1, 1) // odd sizes cross block boundaries
	b := randMatrix(23, 9, 2, -1, 1)
	out, err := Exec(vop.OpGEMM, []*tensor.Matrix{a, b}, nil, Exact{})
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.NewMatrix(17, 9)
	for i := 0; i < 17; i++ {
		for j := 0; j < 9; j++ {
			var s float64
			for k := 0; k < 23; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			want.Set(i, j, s)
		}
	}
	if maxAbsDiff(out.Data, want.Data) > 1e-9 {
		t.Fatal("GEMM disagrees with naive")
	}
}

func TestGEMMIdentity(t *testing.T) {
	a := randMatrix(8, 8, 3, -2, 2)
	id := tensor.NewMatrix(8, 8)
	for i := 0; i < 8; i++ {
		id.Set(i, i, 1)
	}
	out, _ := Exec(vop.OpGEMM, []*tensor.Matrix{a, id}, nil, Exact{})
	if !out.Equal(a) {
		t.Fatal("A·I != A")
	}
}

func TestGEMMDimensionError(t *testing.T) {
	if _, err := Exec(vop.OpGEMM, []*tensor.Matrix{tensor.NewMatrix(2, 3), tensor.NewMatrix(2, 2)}, nil, Exact{}); err == nil {
		t.Fatal("inner-dimension mismatch should error")
	}
}

// ---- Reductions ----

func TestReduceSum(t *testing.T) {
	in, _ := tensor.FromSlice(1, 4, []float64{1, 2, 3, 4})
	out, err := Exec(vop.OpReduceSum, []*tensor.Matrix{in}, nil, Exact{})
	if err != nil || out.Data[0] != 10 {
		t.Fatalf("sum = %v err %v", out.Data, err)
	}
}

func TestReduceMaxMin(t *testing.T) {
	in, _ := tensor.FromSlice(1, 4, []float64{3, -7, 2, 5})
	mx, _ := Exec(vop.OpReduceMax, []*tensor.Matrix{in}, nil, Exact{})
	mn, _ := Exec(vop.OpReduceMin, []*tensor.Matrix{in}, nil, Exact{})
	if mx.Data[0] != 5 || mn.Data[0] != -7 {
		t.Fatalf("max/min = %g/%g", mx.Data[0], mn.Data[0])
	}
}

func TestReduceAveragePartialAndMerge(t *testing.T) {
	a, _ := tensor.FromSlice(1, 2, []float64{2, 4})
	b, _ := tensor.FromSlice(1, 3, []float64{6, 6, 6})
	pa, _ := Exec(vop.OpReduceAverage, []*tensor.Matrix{a}, nil, Exact{})
	pb, _ := Exec(vop.OpReduceAverage, []*tensor.Matrix{b}, nil, Exact{})
	if pa.Cols != 2 || pa.Data[1] != 2 {
		t.Fatalf("partial = %v", pa.Data)
	}
	out, err := MergePartials(vop.OpReduceAverage, []*tensor.Matrix{pa, pb}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Data[0]-24.0/5) > 1e-12 {
		t.Fatalf("average = %g want %g", out.Data[0], 24.0/5)
	}
}

func TestReduceHistogram(t *testing.T) {
	in, _ := tensor.FromSlice(1, 4, []float64{0.0, 0.5, 0.999, -3})
	out, err := Exec(vop.OpReduceHist256, []*tensor.Matrix{in},
		map[string]float64{"hist_lo": 0, "hist_hi": 1}, Exact{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Data[0] != 2 { // 0.0 and the clamped -3
		t.Fatalf("bin0 = %g", out.Data[0])
	}
	if out.Data[128] != 1 || out.Data[255] != 1 {
		t.Fatalf("bins: %g %g", out.Data[128], out.Data[255])
	}
	var total float64
	for _, v := range out.Data {
		total += v
	}
	if total != 4 {
		t.Fatalf("histogram total = %g", total)
	}
}

func TestReduceHistogramBadRange(t *testing.T) {
	in := tensor.NewMatrix(1, 4)
	if _, err := Exec(vop.OpReduceHist256, []*tensor.Matrix{in},
		map[string]float64{"hist_lo": 1, "hist_hi": 1}, Exact{}); err == nil {
		t.Fatal("empty range should error")
	}
}

func TestMergePartialsSumAndHist(t *testing.T) {
	p1 := tensor.NewMatrix(1, 1)
	p1.Data[0] = 3
	p2 := tensor.NewMatrix(1, 1)
	p2.Data[0] = 4
	out, err := MergePartials(vop.OpReduceSum, []*tensor.Matrix{p1, p2}, 0)
	if err != nil || out.Data[0] != 7 {
		t.Fatalf("merged sum = %v err %v", out.Data, err)
	}
	h1 := tensor.NewMatrix(1, 256)
	h1.Data[3] = 2
	h2 := tensor.NewMatrix(1, 256)
	h2.Data[3] = 5
	hm, err := MergePartials(vop.OpReduceHist256, []*tensor.Matrix{h1, h2}, 0)
	if err != nil || hm.Data[3] != 7 {
		t.Fatalf("merged hist = %v err %v", hm.Data[3], err)
	}
	if _, err := MergePartials(vop.OpReduceHist256, []*tensor.Matrix{tensor.NewMatrix(1, 3)}, 0); err == nil {
		t.Fatal("bad histogram partial should error")
	}
	if _, err := MergePartials(vop.OpReduceSum, nil, 0); err == nil {
		t.Fatal("empty partials should error")
	}
	if _, err := MergePartials(vop.OpAdd, []*tensor.Matrix{p1}, 0); err == nil {
		t.Fatal("non-reduction merge should error")
	}
}

// Property: partitioned reduce_sum equals whole-array reduce_sum.
func TestPropertyPartitionedSum(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.NewSource(seed)
		rng := randFrom(r)
		n := 2 + rng.Intn(64)
		data := make([]float64, n)
		for i := range data {
			data[i] = rng.NormFloat64()
		}
		whole, _ := tensor.FromSlice(1, n, data)
		wout, err := Exec(vop.OpReduceSum, []*tensor.Matrix{whole}, nil, Exact{})
		if err != nil {
			return false
		}
		cut := 1 + rng.Intn(n-1)
		a, _ := tensor.FromSlice(1, cut, data[:cut])
		b, _ := tensor.FromSlice(1, n-cut, data[cut:])
		pa, _ := Exec(vop.OpReduceSum, []*tensor.Matrix{a}, nil, Exact{})
		pb, _ := Exec(vop.OpReduceSum, []*tensor.Matrix{b}, nil, Exact{})
		merged, err := MergePartials(vop.OpReduceSum, []*tensor.Matrix{pa, pb}, n)
		if err != nil {
			return false
		}
		return math.Abs(merged.Data[0]-wout.Data[0]) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKahanSumStability(t *testing.T) {
	// 1 + 1e-16 added many times: naive summation loses the small term.
	vals := make([]float64, 1_000_001)
	vals[0] = 1
	for i := 1; i < len(vals); i++ {
		vals[i] = 1e-16
	}
	got := kahanSum(vals)
	want := 1 + 1e-10
	if math.Abs(got-want) > 1e-14 {
		t.Fatalf("kahan = %.18g want %.18g", got, want)
	}
}

func randFrom(src rand.Source) *rand.Rand { return rand.New(src) }

func TestHotspotMultiStepMatchesRepeatedSingleSteps(t *testing.T) {
	temp := randMatrix(12, 12, 20, 75, 85)
	power := randMatrix(12, 12, 21, 0, 1)
	multi, err := Exec(vop.OpStencil, []*tensor.Matrix{temp, power},
		map[string]float64{"steps": 3}, Exact{})
	if err != nil {
		t.Fatal(err)
	}
	cur := temp
	for i := 0; i < 3; i++ {
		next, err := Exec(vop.OpStencil, []*tensor.Matrix{cur, power}, nil, Exact{})
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	if maxAbsDiff(multi.Data, cur.Data) > 1e-12 {
		t.Fatal("steps=3 should equal three single steps")
	}
}

func TestDWTMultiLevelRecursesOnLL(t *testing.T) {
	in := randMatrix(16, 16, 22, 0, 1)
	one, err := Exec(vop.OpFDWT97, []*tensor.Matrix{in}, nil, Exact{})
	if err != nil {
		t.Fatal(err)
	}
	two, err := Exec(vop.OpFDWT97, []*tensor.Matrix{in},
		map[string]float64{"levels": 2}, Exact{})
	if err != nil {
		t.Fatal(err)
	}
	// The non-LL quadrants of level 1 are untouched by level 2.
	same := func(i, j int) bool { return one.At(i, j) == two.At(i, j) }
	if !same(12, 12) || !same(4, 12) || !same(12, 4) {
		t.Fatal("level 2 must not modify level-1 detail quadrants")
	}
	// The LL quadrant must differ (it was transformed again).
	var diff bool
	for i := 0; i < 8 && !diff; i++ {
		for j := 0; j < 8; j++ {
			if one.At(i, j) != two.At(i, j) {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Fatal("level 2 should transform the LL quadrant")
	}
}
