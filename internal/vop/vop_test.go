package vop

import (
	"math"
	"strings"
	"testing"

	"shmt/internal/tensor"
)

func TestOpcodeNamesMatchTable1(t *testing.T) {
	want := map[Opcode]string{
		OpAdd: "add", OpSub: "sub", OpMultiply: "multiply", OpLog: "log",
		OpSqrt: "sqrt", OpRsqrt: "rsqrt", OpTanh: "tanh", OpRelu: "relu",
		OpMax: "max", OpMin: "min", OpReduceSum: "reduce_sum",
		OpReduceAverage: "reduce_average", OpReduceMax: "reduce_max",
		OpReduceMin: "reduce_min", OpReduceHist256: "reduce_hist256",
		OpParabolicPDE: "parabolic_PDE", OpConv: "conv", OpGEMM: "GEMM",
		OpDCT8x8: "DCT8x8", OpFDWT97: "FDWT97", OpFFT: "FFT",
		OpLaplacian: "Laplacian", OpMeanFilter: "Mean_Filter",
		OpSobel: "Sobel", OpSRAD: "SRAD", OpStencil: "stencil",
	}
	for op, name := range want {
		if op.String() != name {
			t.Errorf("%d String = %q want %q", int(op), op.String(), name)
		}
	}
	if !strings.Contains(OpInvalid.String(), "Opcode(") {
		t.Errorf("invalid opcode String = %q", OpInvalid.String())
	}
}

func TestAllCoversEveryOpcodeOnce(t *testing.T) {
	seen := map[Opcode]bool{}
	for _, op := range All() {
		if seen[op] {
			t.Fatalf("%s listed twice", op)
		}
		seen[op] = true
	}
	if len(seen) != 26 {
		t.Fatalf("All() has %d opcodes, want 26 (Table 1)", len(seen))
	}
	for op := OpInvalid - 1; op <= OpStencil+1; op++ {
		if op.Known() != seen[op] {
			t.Errorf("%s: Known() = %v, listed by All() %v", op, op.Known(), seen[op])
		}
	}
}

// TestParseRoundTripsEveryOpcode: Parse(op.String()) must return op for all
// 26 opcodes, in printed, lower, and upper spellings — Parse is the wire
// format's entry point (shmt.ParseOp, the HTTP server, the CLIs).
func TestParseRoundTripsEveryOpcode(t *testing.T) {
	for _, op := range All() {
		name := op.String()
		for _, spelling := range []string{name, strings.ToLower(name), strings.ToUpper(name)} {
			got, ok := Parse(spelling)
			if !ok {
				t.Errorf("Parse(%q) not found", spelling)
				continue
			}
			if got != op {
				t.Errorf("Parse(%q) = %s, want %s", spelling, got, op)
			}
		}
	}
}

func TestParseRejectsUnknownNames(t *testing.T) {
	for _, bad := range []string{"", "nope", "add ", " add", "Opcode(3)", "gem", "addmultiply"} {
		if op, ok := Parse(bad); ok {
			t.Errorf("Parse(%q) = %s, want not-found", bad, op)
		}
	}
	// The not-found opcode must be the invalid zero value, so callers that
	// ignore ok still can't execute anything.
	if op, _ := Parse("nope"); op != OpInvalid {
		t.Errorf("Parse miss returned %s, want OpInvalid", op)
	}
}

func TestParallelizationModels(t *testing.T) {
	vectorOps := []Opcode{OpAdd, OpLog, OpReduceSum, OpReduceHist256, OpParabolicPDE}
	for _, op := range vectorOps {
		if op.Model() != Vector {
			t.Errorf("%s should be vector-model", op)
		}
	}
	tileOps := []Opcode{OpGEMM, OpConv, OpDCT8x8, OpFDWT97, OpFFT, OpSobel, OpSRAD, OpStencil}
	for _, op := range tileOps {
		if op.Model() != Tile {
			t.Errorf("%s should be tile-model", op)
		}
	}
	if Vector.String() != "vector" || Tile.String() != "tile" {
		t.Fatal("model names wrong")
	}
}

func TestReductionsAndHalos(t *testing.T) {
	for _, op := range []Opcode{OpReduceSum, OpReduceAverage, OpReduceMax, OpReduceMin, OpReduceHist256} {
		if !op.IsReduction() {
			t.Errorf("%s should be a reduction", op)
		}
	}
	if OpAdd.IsReduction() || OpGEMM.IsReduction() {
		t.Fatal("non-reduction reported as reduction")
	}
	for _, op := range []Opcode{OpSobel, OpLaplacian, OpMeanFilter, OpStencil, OpConv} {
		if op.Halo() != 1 {
			t.Errorf("%s halo = %d want 1", op, op.Halo())
		}
	}
	if OpSRAD.Halo() != 2 {
		t.Errorf("SRAD halo = %d want 2 (coefficient neighbourhood)", OpSRAD.Halo())
	}
	if OpAdd.Halo() != 0 || OpFFT.Halo() != 0 || OpGEMM.Halo() != 0 {
		t.Fatal("halo-less op reports a halo")
	}
}

func TestNumInputs(t *testing.T) {
	two := []Opcode{OpAdd, OpSub, OpMultiply, OpMax, OpMin, OpGEMM, OpConv, OpParabolicPDE, OpStencil}
	for _, op := range two {
		if op.NumInputs() != 2 {
			t.Errorf("%s NumInputs = %d want 2", op, op.NumInputs())
		}
	}
	one := []Opcode{OpLog, OpSobel, OpFFT, OpReduceSum, OpDCT8x8}
	for _, op := range one {
		if op.NumInputs() != 1 {
			t.Errorf("%s NumInputs = %d want 1", op, op.NumInputs())
		}
	}
}

func TestNewValidatesArity(t *testing.T) {
	m := tensor.NewMatrix(8, 8)
	if _, err := New(OpAdd, m); err == nil {
		t.Fatal("add with one input should fail")
	}
	if _, err := New(OpSobel, m, m); err == nil {
		t.Fatal("sobel with two inputs should fail")
	}
	if _, err := New(OpSobel, m); err != nil {
		t.Fatalf("valid sobel rejected: %v", err)
	}
}

func TestNewValidatesShapes(t *testing.T) {
	a := tensor.NewMatrix(8, 8)
	b := tensor.NewMatrix(8, 9)
	if _, err := New(OpAdd, a, b); err == nil {
		t.Fatal("shape mismatch should fail")
	}
	if _, err := New(OpAdd, a, nil); err == nil {
		t.Fatal("nil input should fail")
	}
	if _, err := New(OpSobel, tensor.NewMatrix(0, 0)); err == nil {
		t.Fatal("empty input should fail")
	}
}

func TestNewValidatesGEMM(t *testing.T) {
	a := tensor.NewMatrix(4, 6)
	b := tensor.NewMatrix(6, 3)
	v, err := New(OpGEMM, a, b)
	if err != nil {
		t.Fatal(err)
	}
	r, c := v.OutputShape()
	if r != 4 || c != 3 {
		t.Fatalf("GEMM output %dx%d", r, c)
	}
	if _, err := New(OpGEMM, a, tensor.NewMatrix(5, 3)); err == nil {
		t.Fatal("inner-dimension mismatch should fail")
	}
}

func TestNewValidatesConvKernel(t *testing.T) {
	img := tensor.NewMatrix(16, 16)
	if _, err := New(OpConv, img, tensor.NewMatrix(3, 3)); err != nil {
		t.Fatalf("odd square kernel rejected: %v", err)
	}
	if _, err := New(OpConv, img, tensor.NewMatrix(2, 2)); err == nil {
		t.Fatal("even kernel should fail")
	}
	if _, err := New(OpConv, img, tensor.NewMatrix(3, 5)); err == nil {
		t.Fatal("non-square kernel should fail")
	}
}

func TestNewValidatesDCTAlignment(t *testing.T) {
	if _, err := New(OpDCT8x8, tensor.NewMatrix(16, 16)); err != nil {
		t.Fatalf("aligned DCT rejected: %v", err)
	}
	if _, err := New(OpDCT8x8, tensor.NewMatrix(12, 16)); err == nil {
		t.Fatal("unaligned DCT should fail")
	}
}

func TestNewValidatesFFTPow2(t *testing.T) {
	if _, err := New(OpFFT, tensor.NewMatrix(4, 16)); err != nil {
		t.Fatalf("pow2 FFT rejected: %v", err)
	}
	if _, err := New(OpFFT, tensor.NewMatrix(4, 12)); err == nil {
		t.Fatal("non-pow2 FFT should fail")
	}
}

func TestOutputShapes(t *testing.T) {
	m := tensor.NewMatrix(8, 16)
	cases := []struct {
		op   Opcode
		r, c int
	}{
		{OpSobel, 8, 16},
		{OpReduceSum, 1, 1},
		{OpReduceAverage, 1, 1},
		{OpReduceHist256, 1, 256},
		{OpFFT, 8, 16},
	}
	for _, cse := range cases {
		v, err := New(cse.op, m)
		if err != nil {
			t.Fatalf("%s: %v", cse.op, err)
		}
		r, c := v.OutputShape()
		if r != cse.r || c != cse.c {
			t.Errorf("%s output %dx%d want %dx%d", cse.op, r, c, cse.r, cse.c)
		}
	}
}

func TestAttrs(t *testing.T) {
	v, err := New(OpSRAD, tensor.NewMatrix(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if v.Attr("lambda", 0.5) != 0.5 {
		t.Fatal("default attr wrong")
	}
	v.SetAttr("lambda", 0.1)
	if v.Attr("lambda", 0.5) != 0.1 {
		t.Fatal("set attr not returned")
	}
	var nilAttrs *VOP = &VOP{Op: OpSobel}
	if nilAttrs.Attr("x", 3) != 3 {
		t.Fatal("nil attrs default wrong")
	}
	nilAttrs.SetAttr("x", 4)
	if nilAttrs.Attr("x", 3) != 4 {
		t.Fatal("SetAttr on nil map failed")
	}
}

func TestValidateUnknownOpcode(t *testing.T) {
	v := &VOP{Op: Opcode(999), Inputs: []*tensor.Matrix{tensor.NewMatrix(2, 2)}}
	if err := v.Validate(); err == nil {
		t.Fatal("unknown opcode should fail validation")
	}
}

func TestHaloWidthAndWorkFactor(t *testing.T) {
	m := tensor.NewMatrix(8, 8)
	v, err := New(OpStencil, m, tensor.NewMatrix(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if v.HaloWidth() != 1 || v.WorkFactor() != 1 {
		t.Fatal("single-step stencil defaults wrong")
	}
	v.SetAttr("steps", 4)
	if v.HaloWidth() != 4 {
		t.Fatalf("halo = %d want 4", v.HaloWidth())
	}
	if v.WorkFactor() != 4 {
		t.Fatalf("work = %g want 4", v.WorkFactor())
	}

	d, err := New(OpFDWT97, m)
	if err != nil {
		t.Fatal(err)
	}
	d.SetAttr("levels", 3)
	// 1 + 1/4 + 1/16 = 1.3125
	if got := d.WorkFactor(); got < 1.31 || got > 1.32 {
		t.Fatalf("DWT work factor = %g", got)
	}
	if d.HaloWidth() != 0 {
		t.Fatal("DWT tiles transform independently; no halo")
	}
	s, _ := New(OpSobel, m)
	if s.WorkFactor() != 1 {
		t.Fatal("non-iterative ops have unit work factor")
	}
}

// TestWorkFactorCountsOnlyLevelsTheKernelRuns: the DWT kernel stops once a
// side drops below 2, so an 8×8 input runs three levels (8 → 4 → 2 → 1)
// however many are asked for, and a huge count returns at once.
func TestWorkFactorCountsOnlyLevelsTheKernelRuns(t *testing.T) {
	d, err := New(OpFDWT97, tensor.NewMatrix(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	d.SetAttr("levels", 3)
	want := d.WorkFactor()
	for _, levels := range []float64{4, 64, 1e9, 1e18} {
		d.SetAttr("levels", levels)
		if got := d.WorkFactor(); got != want {
			t.Fatalf("levels %g: work factor %g, want %g (three levels run)", levels, got, want)
		}
	}
}

// TestValidateRefusesBadIterationCounts: a levels or steps the kernel would
// truncate, or whose work overflows an HLOP's element count, is refused, so
// a served request gets a 400 instead of a wrong charge or a negative Elems.
func TestValidateRefusesBadIterationCounts(t *testing.T) {
	grid := func() []*tensor.Matrix { return []*tensor.Matrix{tensor.NewMatrix(8, 8), tensor.NewMatrix(8, 8)} }
	for _, c := range []struct {
		op    Opcode
		attr  string
		x     float64
		valid bool
	}{
		{OpStencil, "steps", 2, true},
		{OpStencil, "steps", -3, true}, // the kernel runs one sweep
		{OpStencil, "steps", 1 << 50, true},
		{OpStencil, "steps", 2.5, false},
		{OpStencil, "steps", 9.2e18, false},
		{OpStencil, "steps", math.NaN(), false},
		{OpStencil, "steps", math.Inf(1), false},
		{OpFDWT97, "levels", 1e9, true},
		{OpFDWT97, "levels", 1.5, false},
		{OpFDWT97, "levels", 1e300, false},
		{OpSobel, "steps", 2.5, true}, // an attribute the kernel does not read
	} {
		v := &VOP{Op: c.op, Inputs: grid()[:c.op.NumInputs()], Attrs: map[string]float64{c.attr: c.x}}
		if err := v.Validate(); (err == nil) != c.valid {
			t.Errorf("%s %s=%g: Validate() = %v, want valid=%v", c.op, c.attr, c.x, err, c.valid)
		}
	}
}
