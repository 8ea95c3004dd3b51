package kernels

import (
	"shmt/internal/parallel"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// execSRAD performs one iteration of Speckle Reducing Anisotropic Diffusion
// (Yu & Acton 2002), the update used by the Rodinia/CUDA SRAD benchmarks for
// ultrasound/medical-image despeckling.
//
// Attributes: "lambda" — diffusion time step (default 0.5); "q0sqr" — the
// speckle-scale coefficient normally derived from a homogeneous reference
// region each iteration (default 0.05). Passing q0sqr as an attribute keeps
// partitions independent, matching how the paper's HLOP partitioning avoids
// cross-device synchronization inside a VOP.
//
// Stage boundaries: gradient/coefficient computation, coefficient smoothing,
// and the diffusion update (3 stages). Each stage reads only earlier-stage
// grids, so its row-parallel sweep is bit-identical to the sequential loop.
func execSRAD(inputs []*tensor.Matrix, dst *tensor.Matrix, a attrs, r Rounder) (*tensor.Matrix, error) {
	if err := checkInputs(vop.OpSRAD, inputs, 1); err != nil {
		return nil, err
	}
	in := inputs[0]
	lambda := a.get("lambda", 0.5)
	q0sqr := a.get("q0sqr", 0.05)

	rows, cols := in.Rows, in.Cols
	// Stage 1: directional derivatives and the diffusion coefficient c.
	sa := sradArgs{in: in, q0sqr: q0sqr,
		c:  tensor.GetMatrixUninit(rows, cols),
		dN: tensor.GetMatrixUninit(rows, cols),
		dS: tensor.GetMatrixUninit(rows, cols),
		dW: tensor.GetMatrixUninit(rows, cols),
		dE: tensor.GetMatrixUninit(rows, cols)}
	sradSweeps.For(rows, parallel.RowGrain(cols), sa, sradCoefficients)
	r.Round(sa.c.Data) // stage 1

	// Stage 2: divergence using the south/east neighbours' coefficients.
	sa.div = tensor.GetMatrixUninit(rows, cols)
	sradSweeps.For(rows, parallel.RowGrain(cols), sa, sradDivergence)
	r.Round(sa.div.Data) // stage 2
	tensor.PutMatrix(sa.dN)
	tensor.PutMatrix(sa.dS)
	tensor.PutMatrix(sa.dW)
	tensor.PutMatrix(sa.dE)
	tensor.PutMatrix(sa.c)

	// Stage 3: explicit update.
	out, err := outFor(dst, rows, cols)
	if err != nil {
		tensor.PutMatrix(sa.div)
		return nil, err
	}
	forSpans2(out, in, sa.div, lambda, sradUpdate)
	RoundMatrix(r, out) // stage 3
	tensor.PutMatrix(sa.div)
	return out, nil
}

// sradArgs are the SRAD sweeps' operands: the input, the stage-1 grids
// (coefficient and the four directional derivatives) and the divergence.
type sradArgs struct {
	in, c, dN, dS, dW, dE, div *tensor.Matrix
	q0sqr                      float64
}

var sradSweeps parallel.Pooled[sradArgs]

func sradCoefficients(a *sradArgs, lo, hi int) {
	q0sqr := a.q0sqr
	for i := lo; i < hi; i++ {
		up, mid, dn := rows3(a.in, i)
		cRow := a.c.Row(i)[:len(mid)]
		nRow, sRow := a.dN.Row(i)[:len(mid)], a.dS.Row(i)[:len(mid)]
		wRow, eRow := a.dW.Row(i)[:len(mid)], a.dE.Row(i)[:len(mid)]
		for j, jc := range mid {
			if jc == 0 {
				jc = 1e-12 // guard the division; SRAD inputs are positive intensities
			}
			jl, jr := cols3(j, len(mid))
			n := up[j] - jc
			s := dn[j] - jc
			w := mid[jl] - jc
			e := mid[jr] - jc
			nRow[j], sRow[j], wRow[j], eRow[j] = n, s, w, e

			g2 := (n*n + s*s + w*w + e*e) / (jc * jc)
			l := (n + s + w + e) / jc
			num := 0.5*g2 - 0.0625*l*l
			den := 1 + 0.25*l
			qsqr := num / (den * den)
			// Diffusion coefficient, clamped to [0,1].
			cv := 1 / (1 + (qsqr-q0sqr)/(q0sqr*(1+q0sqr)))
			if cv < 0 {
				cv = 0
			}
			if cv > 1 {
				cv = 1
			}
			cRow[j] = cv
		}
	}
}

func sradDivergence(a *sradArgs, lo, hi int) {
	for i := lo; i < hi; i++ {
		cMid := a.c.Row(i)
		cDn := clampRow(a.c, i+1)[:len(cMid)]
		nRow, sRow := a.dN.Row(i)[:len(cMid)], a.dS.Row(i)[:len(cMid)]
		wRow, eRow := a.dW.Row(i)[:len(cMid)], a.dE.Row(i)[:len(cMid)]
		dRow := a.div.Row(i)[:len(cMid)]
		for j, cNW := range cMid { // the north and west coefficients are the pixel's own
			cS := cDn[j]
			cE := cMid[min(j+1, len(cMid)-1)]
			dRow[j] = cNW*nRow[j] + cS*sRow[j] + cNW*wRow[j] + cE*eRow[j]
		}
	}
}

func sradUpdate(lambda float64, d, x, y []float64) {
	for i := range d {
		d[i] = x[i] + 0.25*lambda*y[i]
	}
}
