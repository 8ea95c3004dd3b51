package kernels

import (
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// CDF 9/7 lifting coefficients (the biorthogonal wavelet of JPEG 2000 and
// Rodinia's DWT benchmark).
const (
	dwtAlpha = -1.586134342059924
	dwtBeta  = -0.052980118572961
	dwtGamma = 0.882911075530934
	dwtDelta = 0.443506852043971
	dwtKappa = 1.230174104914001
)

// execFDWT97 computes the 2-D forward discrete wavelet transform with the
// CDF 9/7 lifting scheme: per level, a horizontal pass over every row, then
// a vertical pass over every column (two stage boundaries per level).
// Output layout is the conventional [LL|HL;LH|HH] quadrant arrangement,
// recursing on the LL quadrant for the "levels" attribute (default 1, as in
// Rodinia's multi-level DWT). Odd-length rows or columns place the extra
// sample in the low-pass half.
func execFDWT97(inputs []*tensor.Matrix, dst *tensor.Matrix, a attrs, r Rounder) (*tensor.Matrix, error) {
	if err := checkInputs(vop.OpFDWT97, inputs, 1); err != nil {
		return nil, err
	}
	in := inputs[0]
	levels := int(a.get("levels", 1))
	if levels < 1 {
		levels = 1
	}
	out, err := outFor(dst, in.Rows, in.Cols)
	if err != nil {
		return nil, err
	}
	// The lifting passes transform a dense buffer in place: use dst directly
	// when it is gap-free, otherwise run in scratch and scatter once at the
	// end.
	work := out
	if !out.IsContiguous() {
		work = tensor.GetMatrixUninit(in.Rows, in.Cols)
	}
	work.CopyFrom(in)

	rows, cols := in.Rows, in.Cols
	for lvl := 0; lvl < levels && rows >= 2 && cols >= 2; lvl++ {
		dwtLevel(work, rows, cols, r)
		rows = (rows + 1) / 2
		cols = (cols + 1) / 2
	}
	if work != out {
		out.CopyFrom(work)
		tensor.PutMatrix(work)
	}
	return out, nil
}

// dwtLevel transforms the top-left rows×cols block of m in place: a 1-D
// lift of every row, then of every column, in scratch shared by the pass.
func dwtLevel(m *tensor.Matrix, rows, cols int, r Rounder) {
	// Horizontal pass.
	scratch := tensor.GetFloats(2 * cols)
	row, buf := scratch[:cols], scratch[cols:]
	for i := 0; i < rows; i++ {
		copy(row, m.Data[i*m.Cols:i*m.Cols+cols])
		lift97Scratch(row, buf)
		copy(m.Data[i*m.Cols:i*m.Cols+cols], row)
	}
	tensor.PutFloats(scratch)
	r.Round(m.Data) // stage 1

	// Vertical pass.
	scratch = tensor.GetFloats(2 * rows)
	col, buf := scratch[:rows], scratch[rows:]
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			col[i] = m.Data[i*m.Cols+j]
		}
		lift97Scratch(col, buf)
		for i := 0; i < rows; i++ {
			m.Data[i*m.Cols+j] = col[i]
		}
	}
	tensor.PutFloats(scratch)
	r.Round(m.Data) // stage 2
}

// lift97Scratch runs the forward 9/7 lifting steps in place and
// deinterleaves the result into [low | high] halves using buf (len ≥ len(x))
// as scratch. Boundaries use symmetric extension.
func lift97Scratch(x, buf []float64) {
	n := len(x)
	if n < 2 {
		return
	}
	at := func(i int) float64 { // symmetric (mirror) extension
		if i < 0 {
			i = -i
		}
		if i >= n {
			i = 2*(n-1) - i
		}
		return x[i]
	}
	// Predict 1: odd += alpha * (left + right even)
	for i := 1; i < n; i += 2 {
		x[i] += dwtAlpha * (at(i-1) + at(i+1))
	}
	// Update 1: even += beta * (left + right odd)
	for i := 0; i < n; i += 2 {
		x[i] += dwtBeta * (at(i-1) + at(i+1))
	}
	// Predict 2.
	for i := 1; i < n; i += 2 {
		x[i] += dwtGamma * (at(i-1) + at(i+1))
	}
	// Update 2.
	for i := 0; i < n; i += 2 {
		x[i] += dwtDelta * (at(i-1) + at(i+1))
	}
	// Scale.
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			x[i] *= dwtKappa
		} else {
			x[i] /= dwtKappa
		}
	}
	// Deinterleave: evens (low) first, odds (high) second.
	half := (n + 1) / 2
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			buf[i/2] = x[i]
		} else {
			buf[half+i/2] = x[i]
		}
	}
	copy(x, buf[:n])
}
