package kernels

import (
	"fmt"
	"math"

	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// dct8Basis[k][x] = c(k) * cos((2x+1)kπ/16): the 1-D 8-point DCT-II basis
// with the orthonormal scaling used by the CUDA SDK's dct8x8 sample.
var dct8Basis = func() [8][8]float64 {
	var b [8][8]float64
	for k := 0; k < 8; k++ {
		c := math.Sqrt(2.0 / 8.0)
		if k == 0 {
			c = math.Sqrt(1.0 / 8.0)
		}
		for x := 0; x < 8; x++ {
			b[k][x] = c * math.Cos(float64(2*x+1)*float64(k)*math.Pi/16)
		}
	}
	return b
}()

// dct8Dot is the unrolled 8-point dot product Σ b[x]·v[x], accumulated from
// zero in ascending x exactly like the loop it replaces (so a −0 first
// product still sums to +0).
func dct8Dot(b *[8]float64, v0, v1, v2, v3, v4, v5, v6, v7 float64) float64 {
	var s float64
	s += b[0] * v0
	s += b[1] * v1
	s += b[2] * v2
	s += b[3] * v3
	s += b[4] * v4
	s += b[5] * v5
	s += b[6] * v6
	s += b[7] * v7
	return s
}

// execDCT8x8 computes the blockwise 8x8 2-D DCT-II of the input (rows and
// cols must be multiples of 8), as separable row then column passes — the
// two stage boundaries of the kernel.
func execDCT8x8(inputs []*tensor.Matrix, dst *tensor.Matrix, r Rounder) (*tensor.Matrix, error) {
	if err := checkInputs(vop.OpDCT8x8, inputs, 1); err != nil {
		return nil, err
	}
	in := inputs[0]
	if in.Rows%8 != 0 || in.Cols%8 != 0 {
		return nil, fmt.Errorf("kernels: DCT8x8 input %dx%d not a multiple of 8", in.Rows, in.Cols)
	}
	// Row pass: for each 8-wide strip of each row, tmp[k] = Σx basis[k][x]*v[x].
	// The input may be a strided tile view; tmp is always dense.
	tmp := tensor.GetMatrixUninit(in.Rows, in.Cols)
	dctRowPass(in, tmp)
	r.Round(tmp.Data) // stage 1

	// Column pass within each 8-tall block; blocks are independent. Each
	// output row k of a block is the basis-k combination of the block's
	// eight tmp rows, walked left to right together. The destination may be
	// a strided view into the VOP output.
	out, err := outFor(dst, in.Rows, in.Cols)
	if err != nil {
		tensor.PutMatrix(tmp)
		return nil, err
	}
	dctColPass(tmp, out)
	RoundMatrix(r, out) // stage 2
	tensor.PutMatrix(tmp)
	return out, nil
}

func dctRowPass(in, tmp *tensor.Matrix) {
	for row := 0; row < in.Rows; row++ {
		src, dst := in.Row(row), tmp.Row(row)
		for bc := 0; bc+8 <= len(src); bc += 8 {
			v, o := src[bc:bc+8], dst[bc:bc+8]
			for k := range o {
				o[k] = dct8Dot(&dct8Basis[k], v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7])
			}
		}
	}
}

func dctColPass(tmp, out *tensor.Matrix) {
	for br := 0; br < tmp.Rows; br += 8 {
		t0 := tmp.Row(br)
		n := len(t0)
		t1, t2, t3 := tmp.Row(br + 1)[:n], tmp.Row(br + 2)[:n], tmp.Row(br + 3)[:n]
		t4, t5, t6, t7 := tmp.Row(br + 4)[:n], tmp.Row(br + 5)[:n], tmp.Row(br + 6)[:n], tmp.Row(br + 7)[:n]
		for k := 0; k < 8; k++ {
			bk, o := &dct8Basis[k], out.Row(br + k)[:n]
			for col := range o {
				o[col] = dct8Dot(bk, t0[col], t1[col], t2[col], t3[col], t4[col], t5[col], t6[col], t7[col])
			}
		}
	}
}
