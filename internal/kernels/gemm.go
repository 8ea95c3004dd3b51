package kernels

import (
	"fmt"

	"shmt/internal/lanes"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// execGEMM computes C = A·B. Every output element is accumulated from its
// value in C in ascending k, whether a tile or the leftover-row loop computes
// it, so the product is bit-identical to the scalar triple loop
// (oracle_test.go). The single stage boundary is the completed product (Edge
// TPUs execute GEMM natively in one systolic pass, so the INT8 path quantizes
// inputs and the final accumulator only — accumulation itself is wide, as in
// real TPUs).
//
// Every element of A is multiplied, zeros included: for finite B a ±0
// product leaves the accumulator (never −0) unchanged, and 0 × Inf or
// 0 × NaN in B gives the IEEE NaN a scalar loop that skips zeros would hide.
func execGEMM(inputs []*tensor.Matrix, dst *tensor.Matrix, r Rounder) (*tensor.Matrix, error) {
	if err := checkInputs(vop.OpGEMM, inputs, 2); err != nil {
		return nil, err
	}
	a, b := inputs[0], inputs[1]
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("kernels: GEMM inner dimensions %d and %d differ", a.Cols, b.Rows)
	}
	var out *tensor.Matrix
	if dst == nil {
		out = tensor.GetMatrix(a.Rows, b.Cols)
	} else {
		var err error
		out, err = outFor(dst, a.Rows, b.Cols)
		if err != nil {
			return nil, err
		}
		// The tiles accumulate from C, so a caller-provided destination —
		// possibly a strided view — must start zeroed too.
		for i := 0; i < out.Rows; i++ {
			row := out.Row(i)
			for j := range row {
				row[j] = 0
			}
		}
	}
	gemmRows(a, b, out)
	RoundMatrix(r, out)
	return out, nil
}

// gemmRows accumulates every row of out = A·B: four rows at a time through
// the register tile (lanes.GEMM4), the leftover rows one at a time.
func gemmRows(a, b, out *tensor.Matrix) {
	i := 0
	for ; i+4 <= a.Rows; i += 4 {
		lanes.GEMM4([4][]float64{out.Row(i), out.Row(i + 1), out.Row(i + 2), out.Row(i + 3)},
			[4][]float64{a.Row(i), a.Row(i + 1), a.Row(i + 2), a.Row(i + 3)}, b.Data, b.RowStride())
	}
	for ; i < a.Rows; i++ {
		c := out.Row(i)
		for k, v := range a.Row(i) {
			for j, p := range b.Row(k)[:len(c)] {
				c[j] += float64(v * p)
			}
		}
	}
}
