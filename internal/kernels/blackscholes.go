package kernels

import (
	"math"

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
// depth used by the Edge TPU cost model.
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
	sd, kd, volSqrtT := s.Data[:n], k.Data[:n], sigma*math.Sqrt(t)
	d1, d2 := tensor.GetFloats(n), tensor.GetFloats(n)
	nd1, nd2 := tensor.GetFloats(n), tensor.GetFloats(n)
	defer func() {
		tensor.PutFloats(d1)
		tensor.PutFloats(d2)
		tensor.PutFloats(nd1)
		tensor.PutFloats(nd2)
	}()
	for i := range d1 {
		d1[i] = (math.Log(sd[i]/kd[i]) + (rate+0.5*sigma*sigma)*t) / volSqrtT
	}
	r.Round(d1) // stage 1

	for i := range d2 {
		d2[i] = d1[i] - volSqrtT
	}
	r.Round(d2) // stage 2

	for i := range nd1 {
		nd1[i] = cnd(d1[i])
		nd2[i] = cnd(d2[i])
	}
	r.Round(nd1) // stage 3 (both CNDs evaluate in the same layer)
	r.Round(nd2)

	out, err := outFor(dst, s.Rows, s.Cols)
	if err != nil {
		return nil, err
	}
	expRT := math.Exp(-rate * t)
	for ri := 0; ri < out.Rows; ri++ {
		row, off := out.Row(ri), ri*out.Cols
		for j := range row {
			row[j] = sd[off+j]*nd1[off+j] - kd[off+j]*expRT*nd2[off+j]
		}
	}
	RoundMatrix(r, out) // stage 4
	return out, nil
}

// cnd is the cumulative normal distribution via the Abramowitz & Stegun
// 5-term polynomial used by the CUDA sample.
func cnd(d float64) float64 {
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
