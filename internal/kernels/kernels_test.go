package kernels

import (
	"math"
	"math/rand"
	"testing"

	"shmt/internal/tensor"
	"shmt/internal/vop"
)

func randMatrix(rows, cols int, seed int64, lo, hi float64) *tensor.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = lo + (hi-lo)*rng.Float64()
	}
	return m
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestExecUnsupportedOpcode(t *testing.T) {
	if _, err := Exec(vop.OpInvalid, nil, nil, Exact{}); err == nil {
		t.Fatal("invalid opcode should error")
	}
}

func TestExecNilRounderDefaultsToExact(t *testing.T) {
	a := randMatrix(4, 4, 1, 0, 1)
	b := randMatrix(4, 4, 2, 0, 1)
	withNil, err := Exec(vop.OpAdd, []*tensor.Matrix{a, b}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	withExact, _ := Exec(vop.OpAdd, []*tensor.Matrix{a, b}, nil, Exact{})
	if !withNil.Equal(withExact) {
		t.Fatal("nil rounder should behave like Exact")
	}
}

func TestBinaryOps(t *testing.T) {
	a := randMatrix(5, 7, 1, -2, 2)
	b := randMatrix(5, 7, 2, -2, 2)
	cases := []struct {
		op vop.Opcode
		f  func(x, y float64) float64
	}{
		{vop.OpAdd, func(x, y float64) float64 { return x + y }},
		{vop.OpSub, func(x, y float64) float64 { return x - y }},
		{vop.OpMultiply, func(x, y float64) float64 { return x * y }},
		{vop.OpMax, math.Max},
		{vop.OpMin, math.Min},
	}
	for _, c := range cases {
		out, err := Exec(c.op, []*tensor.Matrix{a, b}, nil, Exact{})
		if err != nil {
			t.Fatalf("%s: %v", c.op, err)
		}
		for i := range out.Data {
			if out.Data[i] != c.f(a.Data[i], b.Data[i]) {
				t.Fatalf("%s element %d wrong", c.op, i)
			}
		}
	}
}

func TestBinaryShapeMismatch(t *testing.T) {
	a := tensor.NewMatrix(2, 2)
	b := tensor.NewMatrix(2, 3)
	if _, err := Exec(vop.OpAdd, []*tensor.Matrix{a, b}, nil, Exact{}); err == nil {
		t.Fatal("shape mismatch should error")
	}
}

func TestUnaryOps(t *testing.T) {
	a := randMatrix(4, 4, 3, 0.1, 3)
	cases := []struct {
		op vop.Opcode
		f  func(x float64) float64
	}{
		{vop.OpLog, math.Log},
		{vop.OpSqrt, math.Sqrt},
		{vop.OpRsqrt, func(x float64) float64 { return 1 / math.Sqrt(x) }},
		{vop.OpTanh, math.Tanh},
		{vop.OpRelu, func(x float64) float64 { return math.Max(0, x) }},
	}
	for _, c := range cases {
		out, err := Exec(c.op, []*tensor.Matrix{a}, nil, Exact{})
		if err != nil {
			t.Fatalf("%s: %v", c.op, err)
		}
		for i := range out.Data {
			if out.Data[i] != c.f(a.Data[i]) {
				t.Fatalf("%s element %d wrong", c.op, i)
			}
		}
	}
}

func TestReluNegative(t *testing.T) {
	a, _ := tensor.FromSlice(1, 3, []float64{-1, 0, 2})
	out, err := Exec(vop.OpRelu, []*tensor.Matrix{a}, nil, Exact{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Data[0] != 0 || out.Data[1] != 0 || out.Data[2] != 2 {
		t.Fatalf("relu = %v", out.Data)
	}
}

func TestRounderNames(t *testing.T) {
	for _, r := range []Rounder{Exact{}, F32{}, Int8{}} {
		if r.Name() == "" {
			t.Fatal("empty rounder name")
		}
	}
}

func TestF32RounderExactOnSmallInts(t *testing.T) {
	data := []float64{1, 2, 3, -100}
	F32{}.Round(data)
	if data[0] != 1 || data[3] != -100 {
		t.Fatal("small integers should survive fp32")
	}
	data = []float64{1.0000000001}
	F32{}.Round(data)
	if data[0] == 1.0000000001 {
		t.Fatal("fp32 should round sub-epsilon detail away")
	}
}

func TestInt8RounderBoundedError(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := make([]float64, 256)
	orig := make([]float64, 256)
	for i := range data {
		data[i] = rng.Float64()*10 - 5
		orig[i] = data[i]
	}
	Int8{}.Round(data)
	// Max error is half a step of the affine grid over [-5,5]: ~10/255/2.
	if d := maxAbsDiff(data, orig); d > 10.0/255 {
		t.Fatalf("int8 error %g too large", d)
	}
}
