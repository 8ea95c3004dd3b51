package shmt_test

import (
	"math"
	"testing"

	"shmt"
	"shmt/internal/metrics"
	"shmt/internal/workload"
)

// TestEveryVOPEndToEnd executes every opcode of Table 1 through the public
// API under QAWS-TS and checks the result against the exact reference: the
// INT8 share of the work bounds the error, and shapes must match.
func TestEveryVOPEndToEnd(t *testing.T) {
	const side = 64
	pos := workload.Uniform(side, side, 0.1, 1, 1)
	anyv := workload.Uniform(side, side, -1, 1, 2)
	small := workload.Uniform(side, side, -0.9, 0.9, 3) // tanh-friendly
	kernel3, _ := shmt.FromSlice(3, 3, []float64{0, 0.1, 0, 0.1, 0.6, 0.1, 0, 0.1, 0})

	cases := []struct {
		op     shmt.Op
		inputs []*shmt.Matrix
		attrs  map[string]float64
		// tol is the acceptable MAPE given INT8 participation.
		tol float64
	}{
		{shmt.OpAdd, []*shmt.Matrix{pos, anyv}, nil, 0.2},
		{shmt.OpSub, []*shmt.Matrix{pos, anyv}, nil, 0.2},
		{shmt.OpMultiply, []*shmt.Matrix{pos, anyv}, nil, 0.3},
		{shmt.OpLog, []*shmt.Matrix{pos}, nil, 0.3},
		{shmt.OpSqrt, []*shmt.Matrix{pos}, nil, 0.1},
		{shmt.OpRsqrt, []*shmt.Matrix{pos}, nil, 0.2},
		{shmt.OpTanh, []*shmt.Matrix{small}, nil, 0.1},
		{shmt.OpRelu, []*shmt.Matrix{anyv}, nil, 0.3},
		{shmt.OpMax, []*shmt.Matrix{pos, anyv}, nil, 0.1},
		{shmt.OpMin, []*shmt.Matrix{pos, anyv}, nil, 0.3},
		{shmt.OpReduceSum, []*shmt.Matrix{pos}, nil, 0.05},
		{shmt.OpReduceAverage, []*shmt.Matrix{pos}, nil, 0.05},
		{shmt.OpReduceMax, []*shmt.Matrix{pos}, nil, 0.05},
		{shmt.OpReduceMin, []*shmt.Matrix{pos}, nil, 0.25},
		{shmt.OpReduceHist256, []*shmt.Matrix{pos}, map[string]float64{"hist_lo": 0, "hist_hi": 1}, 2.0},
		{shmt.OpParabolicPDE, []*shmt.Matrix{workload.Uniform(side, side, 80, 120, 4), workload.Uniform(side, side, 90, 110, 5)}, nil, 0.3},
		{shmt.OpConv, []*shmt.Matrix{pos, kernel3}, nil, 0.1},
		{shmt.OpGEMM, []*shmt.Matrix{anyv, pos}, nil, 0.3},
		{shmt.OpDCT8x8, []*shmt.Matrix{pos}, nil, 1.0},
		{shmt.OpFDWT97, []*shmt.Matrix{pos}, nil, 1.5},
		{shmt.OpFFT, []*shmt.Matrix{pos}, nil, 0.5},
		{shmt.OpLaplacian, []*shmt.Matrix{pos}, nil, 2.0},
		{shmt.OpMeanFilter, []*shmt.Matrix{pos}, nil, 0.1},
		{shmt.OpSobel, []*shmt.Matrix{pos}, nil, 0.5},
		{shmt.OpSRAD, []*shmt.Matrix{pos}, map[string]float64{"lambda": 0.5, "q0sqr": 0.05}, 0.1},
		{shmt.OpStencil, []*shmt.Matrix{workload.Uniform(side, side, 70, 90, 6), pos}, nil, 0.05},
	}
	if len(cases) != 26 {
		t.Fatalf("case table covers %d opcodes, want all 26", len(cases))
	}

	s, err := shmt.NewSession(shmt.Config{Policy: shmt.PolicyQAWSTS, TargetPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for _, c := range cases {
		rep, err := s.Execute(c.op, c.inputs, c.attrs)
		if err != nil {
			t.Fatalf("%s: %v", c.op, err)
		}
		ref, err := s.Reference(c.op, c.inputs, c.attrs)
		if err != nil {
			t.Fatalf("%s reference: %v", c.op, err)
		}
		if rep.Output.Rows != ref.Rows || rep.Output.Cols != ref.Cols {
			t.Fatalf("%s shape %dx%d want %dx%d", c.op, rep.Output.Rows, rep.Output.Cols, ref.Rows, ref.Cols)
		}
		if c.op == shmt.OpReduceHist256 {
			var total float64
			for _, v := range rep.Output.Data {
				total += v
			}
			if total != float64(side*side) {
				t.Errorf("histogram total = %g want %d", total, side*side)
			}
		}
		mape, err := metrics.MAPE(ref.Data, rep.Output.Data)
		if err != nil {
			t.Fatalf("%s mape: %v", c.op, err)
		}
		if math.IsNaN(mape) || mape > c.tol {
			t.Errorf("%s MAPE %.4f exceeds tolerance %.4f", c.op, mape, c.tol)
		}
	}
}
