package kernels

import (
	"math"

	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// Image kernels (Laplacian, Sobel, Mean Filter) use replicate boundary
// handling, matching OpenCV's BORDER_REPLICATE default in the paper's
// baselines. Each has a single stage boundary.
//
// Every stencil sweep takes its neighbour rows as slices once per output row
// (rows3) and clamps the two neighbour columns per pixel, instead of
// clamping and indexing the matrix per tap; the expressions read the same
// values in the same order as the per-pixel oracles in oracle_test.go.

// clampRow returns row i of m with replicate boundary handling.
func clampRow(m *tensor.Matrix, i int) []float64 {
	return m.Row(max(0, min(i, m.Rows-1)))
}

// rows3 returns rows i-1, i and i+1 of m, the outer two clamped to the
// matrix and re-sliced to the middle one's length so indexing any of them by
// a column of mid needs no bounds check the compiler cannot drop.
func rows3(m *tensor.Matrix, i int) (up, mid, dn []float64) {
	mid = m.Row(i)
	return clampRow(m, i-1)[:len(mid)], mid, clampRow(m, i+1)[:len(mid)]
}

// cols3 returns the replicate-clamped neighbour columns of j in a row of n.
func cols3(j, n int) (l, r int) {
	return max(0, j-1), min(j+1, n-1)
}

func execLaplacian(inputs []*tensor.Matrix, dst *tensor.Matrix, r Rounder) (*tensor.Matrix, error) {
	if err := checkInputs(vop.OpLaplacian, inputs, 1); err != nil {
		return nil, err
	}
	in := inputs[0]
	out, err := outFor(dst, in.Rows, in.Cols)
	if err != nil {
		return nil, err
	}
	laplacianRows(in, out)
	RoundMatrix(r, out)
	return out, nil
}

func laplacianRows(in, out *tensor.Matrix) {
	for i := 0; i < in.Rows; i++ {
		up, mid, dn := rows3(in, i)
		o := out.Row(i)[:len(mid)]
		for j, c := range mid {
			l, r := cols3(j, len(mid))
			o[j] = up[j] + dn[j] + mid[l] + mid[r] - 4*c
		}
	}
}

func execSobel(inputs []*tensor.Matrix, dst *tensor.Matrix, r Rounder) (*tensor.Matrix, error) {
	if err := checkInputs(vop.OpSobel, inputs, 1); err != nil {
		return nil, err
	}
	in := inputs[0]
	out, err := outFor(dst, in.Rows, in.Cols)
	if err != nil {
		return nil, err
	}
	sobelRows(in, out)
	RoundMatrix(r, out)
	return out, nil
}

func sobelRows(in, out *tensor.Matrix) {
	for i := 0; i < in.Rows; i++ {
		up, mid, dn := rows3(in, i)
		o := out.Row(i)[:len(mid)]
		for j := range mid {
			l, r := cols3(j, len(mid))
			gx := -up[l] + up[r] +
				-2*mid[l] + 2*mid[r] +
				-dn[l] + dn[r]
			gy := -up[l] - 2*up[j] - up[r] +
				dn[l] + 2*dn[j] + dn[r]
			o[j] = math.Hypot(gx, gy)
		}
	}
}

func execMeanFilter(inputs []*tensor.Matrix, dst *tensor.Matrix, r Rounder) (*tensor.Matrix, error) {
	if err := checkInputs(vop.OpMeanFilter, inputs, 1); err != nil {
		return nil, err
	}
	in := inputs[0]
	out, err := outFor(dst, in.Rows, in.Cols)
	if err != nil {
		return nil, err
	}
	meanRows(in, out)
	RoundMatrix(r, out)
	return out, nil
}

func meanRows(in, out *tensor.Matrix) {
	for i := 0; i < in.Rows; i++ {
		up, mid, dn := rows3(in, i)
		o := out.Row(i)[:len(mid)]
		for j := range mid {
			l, r := cols3(j, len(mid))
			var s float64
			s += up[l]
			s += up[j]
			s += up[r]
			s += mid[l]
			s += mid[j]
			s += mid[r]
			s += dn[l]
			s += dn[j]
			s += dn[r]
			o[j] = s / 9
		}
	}
}

// execConv computes the 2-D cross-correlation of the input with an odd
// square kernel (the conv VOP; matches what a convolution layer computes).
func execConv(inputs []*tensor.Matrix, dst *tensor.Matrix, r Rounder) (*tensor.Matrix, error) {
	if err := checkInputs(vop.OpConv, inputs, 2); err != nil {
		return nil, err
	}
	in, k := inputs[0], inputs[1]
	out, err := outFor(dst, in.Rows, in.Cols)
	if err != nil {
		return nil, err
	}
	convRows(in, k, out)
	RoundMatrix(r, out)
	return out, nil
}

func convRows(in, k, out *tensor.Matrix) {
	rad := k.Rows / 2
	// The window's input rows, clamped, taken once per output row.
	win := make([][]float64, 2*rad+1)
	for i := 0; i < in.Rows; i++ {
		for d := range win {
			win[d] = clampRow(in, i+d-rad)
		}
		o := out.Row(i)
		for j := range o {
			var s float64
			for d, row := range win {
				krow := k.Row(d)
				for dj := -rad; dj <= rad; dj++ {
					s += row[max(0, min(j+dj, len(row)-1))] * krow[dj+rad]
				}
			}
			o[j] = s
		}
	}
}
