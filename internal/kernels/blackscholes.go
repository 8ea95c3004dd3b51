package kernels

import (
	"math"

	"shmt/internal/lanes"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// execBlackScholes prices European call options with the closed-form
// Black-Scholes solution of the parabolic PDE, the same kernel as the CUDA
// SDK's BlackScholes sample. Inputs: spot prices S and strike prices K;
// attributes: riskfree rate "r" (default 0.02), volatility "sigma" (default
// 0.30), and time to expiry "t" in years (default 1).
//
// The kernel has four stage boundaries (d1, d2, the two CND evaluations fold
// into one stage, and the final combination), which is also the NPU model
// depth used by the Edge TPU cost model. Each stage is a lanes routine; the
// cumulative normal is lanes.CND.
func execBlackScholes(inputs []*tensor.Matrix, dst *tensor.Matrix, a attrs, r Rounder) (*tensor.Matrix, error) {
	if err := checkInputs(vop.OpParabolicPDE, inputs, 2); err != nil {
		return nil, err
	}
	s, k := inputs[0], inputs[1]
	rate := a.get("r", 0.02)
	sigma := a.get("sigma", 0.30)
	t := a.get("t", 1)

	// The staged sweeps index flat payloads; gather strided views once up
	// front (row-band views are contiguous, so this copy is rare).
	if !s.IsContiguous() {
		s = tensor.Materialize(s)
		defer tensor.PutMatrix(s)
	}
	if !k.IsContiguous() {
		k = tensor.Materialize(k)
		defer tensor.PutMatrix(k)
	}

	n := s.Len()
	sd, kd, volSqrtT := s.Data[:n], k.Data[:n], float64(sigma*math.Sqrt(t))
	d1, d2 := tensor.GetFloats(n), tensor.GetFloats(n)
	nd1, nd2 := tensor.GetFloats(n), tensor.GetFloats(n)
	defer func() {
		tensor.PutFloats(d1)
		tensor.PutFloats(d2)
		tensor.PutFloats(nd1)
		tensor.PutFloats(nd2)
	}()
	lanes.D1(d1, sd, kd, (rate+float64(0.5*sigma*sigma))*t, volSqrtT)
	r.Round(d1) // stage 1

	lanes.D2(d2, d1, volSqrtT)
	r.Round(d2) // stage 2

	lanes.CND(nd1, d1)
	lanes.CND(nd2, d2)
	r.Round(nd1) // stage 3 (both CNDs evaluate in the same layer)
	r.Round(nd2)

	out, err := outFor(dst, s.Rows, s.Cols)
	if err != nil {
		return nil, err
	}
	expRT := math.Exp(-rate * t)
	for ri := 0; ri < out.Rows; ri++ {
		off := ri * out.Cols
		lanes.Call(out.Row(ri), sd[off:], nd1[off:], kd[off:], nd2[off:], expRT)
	}
	RoundMatrix(r, out) // stage 4
	return out, nil
}
