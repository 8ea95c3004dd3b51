package kernels

import (
	"fmt"

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
// the register tile, the leftover rows one at a time.
func gemmRows(a, b, out *tensor.Matrix) {
	i := 0
	for ; i+4 <= a.Rows; i += 4 {
		gemmTile4(a, b, out, i, gemmLanes(a, b, out, i))
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

// gemmTile4 accumulates rows i..i+3 of out, but for the whole 4-step blocks
// of k in columns below j0, which gemmLanes (AVX) has added. The register
// tile is 4 rows by 4 steps of k: each pass over j loads four C elements,
// adds sixteen products in ascending k and stores them back, reading each
// row of B once for the four rows of A. Re-slicing every row to the same
// length lets the compiler drop the bounds checks from the j loops. Each
// product is converted to float64 explicitly: the conversion forbids fusing
// it with the add (arm64's FMADDD), so every architecture adds the same
// rounded products.
func gemmTile4(a, b, out *tensor.Matrix, i, j0 int) {
	a0, a1, a2, a3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
	c0 := out.Row(i)
	n := len(c0)
	c1, c2, c3 := out.Row(i + 1)[:n], out.Row(i + 2)[:n], out.Row(i + 3)[:n]
	t0 := c0[j0:]
	m := len(t0)
	t1, t2, t3 := c1[j0:][:m], c2[j0:][:m], c3[j0:][:m]
	k := 0
	for ; k+4 <= a.Cols; k += 4 {
		b0, b1, b2, b3 := b.Row(k)[j0:n][:m], b.Row(k + 1)[j0:n][:m], b.Row(k + 2)[j0:n][:m], b.Row(k + 3)[j0:n][:m]
		x0, x1, x2, x3 := a0[k:k+4], a1[k:k+4], a2[k:k+4], a3[k:k+4]
		for j := range t0 {
			p, q, s, t := b0[j], b1[j], b2[j], b3[j]
			t0[j] = t0[j] + float64(x0[0]*p) + float64(x0[1]*q) + float64(x0[2]*s) + float64(x0[3]*t)
			t1[j] = t1[j] + float64(x1[0]*p) + float64(x1[1]*q) + float64(x1[2]*s) + float64(x1[3]*t)
			t2[j] = t2[j] + float64(x2[0]*p) + float64(x2[1]*q) + float64(x2[2]*s) + float64(x2[3]*t)
			t3[j] = t3[j] + float64(x3[0]*p) + float64(x3[1]*q) + float64(x3[2]*s) + float64(x3[3]*t)
		}
	}
	for ; k < a.Cols; k++ {
		bk := b.Row(k)[:n]
		v0, v1, v2, v3 := a0[k], a1[k], a2[k], a3[k]
		for j, p := range bk {
			c0[j] += float64(v0 * p)
			c1[j] += float64(v1 * p)
			c2[j] += float64(v2 * p)
			c3[j] += float64(v3 * p)
		}
	}
}
