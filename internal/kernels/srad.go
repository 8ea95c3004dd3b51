package kernels

import (
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
// grids.
func execSRAD(inputs []*tensor.Matrix, dst *tensor.Matrix, a attrs, r Rounder) (*tensor.Matrix, error) {
	if err := checkInputs(vop.OpSRAD, inputs, 1); err != nil {
		return nil, err
	}
	in := inputs[0]
	lambda := a.get("lambda", 0.5)
	q0sqr := a.get("q0sqr", 0.05)

	rows, cols := in.Rows, in.Cols
	// Stage 1: directional derivatives and the diffusion coefficient c.
	c := tensor.GetMatrixUninit(rows, cols)
	dN, dS := tensor.GetMatrixUninit(rows, cols), tensor.GetMatrixUninit(rows, cols)
	dW, dE := tensor.GetMatrixUninit(rows, cols), tensor.GetMatrixUninit(rows, cols)
	sradCoefficients(in, c, dN, dS, dW, dE, q0sqr)
	r.Round(c.Data) // stage 1

	// Stage 2: divergence using the south/east neighbours' coefficients.
	div := tensor.GetMatrixUninit(rows, cols)
	sradDivergence(c, dN, dS, dW, dE, div)
	r.Round(div.Data) // stage 2
	tensor.PutMatrix(dN)
	tensor.PutMatrix(dS)
	tensor.PutMatrix(dW)
	tensor.PutMatrix(dE)
	tensor.PutMatrix(c)

	// Stage 3: explicit update.
	out, err := outFor(dst, rows, cols)
	if err != nil {
		tensor.PutMatrix(div)
		return nil, err
	}
	forSpans2(out, in, div, lambda, sradUpdate)
	RoundMatrix(r, out) // stage 3
	tensor.PutMatrix(div)
	return out, nil
}

// sradCoefficients writes the four directional derivatives of in and the
// diffusion coefficient c of every pixel.
func sradCoefficients(in, c, dN, dS, dW, dE *tensor.Matrix, q0sqr float64) {
	for i := 0; i < in.Rows; i++ {
		up, mid, dn := rows3(in, i)
		cRow := c.Row(i)[:len(mid)]
		nRow, sRow := dN.Row(i)[:len(mid)], dS.Row(i)[:len(mid)]
		wRow, eRow := dW.Row(i)[:len(mid)], dE.Row(i)[:len(mid)]
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

// sradDivergence writes the divergence of every pixel from the stage-1
// coefficients and derivatives.
func sradDivergence(c, dN, dS, dW, dE, div *tensor.Matrix) {
	for i := 0; i < c.Rows; i++ {
		cMid := c.Row(i)
		cDn := clampRow(c, i+1)[:len(cMid)]
		nRow, sRow := dN.Row(i)[:len(cMid)], dS.Row(i)[:len(cMid)]
		wRow, eRow := dW.Row(i)[:len(cMid)], dE.Row(i)[:len(cMid)]
		dRow := div.Row(i)[:len(cMid)]
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
