package kernels

import (
	"math"

	"shmt/internal/parallel"
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
	bs := bsArgs{s: s, k: k, rate: rate, sigma: sigma, t: t,
		d1: tensor.GetFloats(n), d2: tensor.GetFloats(n),
		volSqrtT: sigma * math.Sqrt(t)}
	bsSweeps.For(n, parGrain, bs, bsD1)
	r.Round(bs.d1) // stage 1

	bsSweeps.For(n, parGrain, bs, bsD2)
	r.Round(bs.d2) // stage 2

	bs.nd1, bs.nd2 = tensor.GetFloats(n), tensor.GetFloats(n)
	bsSweeps.For(n, parGrain, bs, bsCND)
	r.Round(bs.nd1) // stage 3 (both CNDs evaluate in the same layer)
	r.Round(bs.nd2)

	out, err := outFor(dst, s.Rows, s.Cols)
	if err != nil {
		bs.release()
		return nil, err
	}
	bs.out, bs.expRT = out, math.Exp(-rate*t)
	if out.IsContiguous() {
		bsSweeps.For(n, parGrain, bs, bsPriceFlat)
	} else {
		bsSweeps.For(out.Rows, parallel.RowGrain(out.Cols), bs, bsPriceRows)
	}
	RoundMatrix(r, out) // stage 4
	bs.release()
	return out, nil
}

// bsArgs are the Black-Scholes sweeps' operands: dense spot and strike
// prices, the attributes, the stage buffers and the destination.
type bsArgs struct {
	s, k, out        *tensor.Matrix
	rate, sigma, t   float64
	volSqrtT, expRT  float64
	d1, d2, nd1, nd2 []float64
}

var bsSweeps parallel.Pooled[bsArgs]

func (a *bsArgs) release() {
	tensor.PutFloats(a.d1)
	tensor.PutFloats(a.d2)
	tensor.PutFloats(a.nd1)
	tensor.PutFloats(a.nd2)
}

func bsD1(a *bsArgs, lo, hi int) {
	s, k, d1 := a.s.Data, a.k.Data, a.d1
	rate, sigma, t, volSqrtT := a.rate, a.sigma, a.t, a.volSqrtT
	for i := lo; i < hi; i++ {
		d1[i] = (math.Log(s[i]/k[i]) + (rate+0.5*sigma*sigma)*t) / volSqrtT
	}
}

func bsD2(a *bsArgs, lo, hi int) {
	d1, d2, volSqrtT := a.d1, a.d2, a.volSqrtT
	for i := lo; i < hi; i++ {
		d2[i] = d1[i] - volSqrtT
	}
}

func bsCND(a *bsArgs, lo, hi int) {
	d1, d2, nd1, nd2 := a.d1, a.d2, a.nd1, a.nd2
	for i := lo; i < hi; i++ {
		nd1[i] = cnd(d1[i])
		nd2[i] = cnd(d2[i])
	}
}

func bsPriceFlat(a *bsArgs, lo, hi int) {
	s, k, nd1, nd2, out, expRT := a.s.Data, a.k.Data, a.nd1, a.nd2, a.out.Data, a.expRT
	for i := lo; i < hi; i++ {
		out[i] = s[i]*nd1[i] - k[i]*expRT*nd2[i]
	}
}

func bsPriceRows(a *bsArgs, lo, hi int) {
	s, k, nd1, nd2, expRT := a.s.Data, a.k.Data, a.nd1, a.nd2, a.expRT
	for ri := lo; ri < hi; ri++ {
		row := a.out.Row(ri)
		off := ri * a.out.Cols
		for j := range row {
			row[j] = s[off+j]*nd1[off+j] - k[off+j]*expRT*nd2[off+j]
		}
	}
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
