package kernels

import (
	"fmt"
	"testing"

	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// Micro-benchmarks for the reference kernels at the three device precisions:
// useful for profiling the host simulation cost and for seeing how much the
// INT8 requantization passes add.
func BenchmarkKernels(b *testing.B) {
	const side = 256
	in := randMatrix(side, side, 1, 0.1, 1)
	in2 := randMatrix(side, side, 2, 0.1, 1)
	kernel3 := tensor.NewMatrix(3, 3)
	kernel3.Set(1, 1, 1)

	cases := []struct {
		op     vop.Opcode
		inputs []*tensor.Matrix
	}{
		{vop.OpAdd, []*tensor.Matrix{in, in2}},
		{vop.OpParabolicPDE, []*tensor.Matrix{in, in2}},
		{vop.OpDCT8x8, []*tensor.Matrix{in}},
		{vop.OpFDWT97, []*tensor.Matrix{in}},
		{vop.OpFFT, []*tensor.Matrix{in}},
		{vop.OpReduceHist256, []*tensor.Matrix{in}},
		{vop.OpStencil, []*tensor.Matrix{in, in2}},
		{vop.OpLaplacian, []*tensor.Matrix{in}},
		{vop.OpMeanFilter, []*tensor.Matrix{in}},
		{vop.OpSobel, []*tensor.Matrix{in}},
		{vop.OpSRAD, []*tensor.Matrix{in}},
		{vop.OpConv, []*tensor.Matrix{in, kernel3}},
	}
	rounders := []Rounder{Exact{}, F32{}, Int8{}}
	for _, c := range cases {
		for _, r := range rounders {
			b.Run(fmt.Sprintf("%s/%s", c.op, r.Name()), func(b *testing.B) {
				b.SetBytes(int64(c.inputs[0].Len() * 8))
				for i := 0; i < b.N; i++ {
					if _, err := Exec(c.op, c.inputs, nil, r); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkGEMM exercises the blocked matrix multiply (output-element
// throughput).
func BenchmarkGEMM(b *testing.B) {
	const n = 128
	x := randMatrix(n, n, 3, -1, 1)
	y := randMatrix(n, n, 4, -1, 1)
	b.SetBytes(int64(n * n * 8))
	for i := 0; i < b.N; i++ {
		if _, err := Exec(vop.OpGEMM, []*tensor.Matrix{x, y}, nil, Exact{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelsHLOP measures the kernels at the shapes the engine runs
// them: one HLOP of the benchmark's lib_compute mix (a few thousand
// elements, halo included), at each device precision. BenchmarkKernels is
// the 256² view; tile and unroll choices are judged here, where loop
// overheads and edge handling are not amortised away.
func BenchmarkKernelsHLOP(b *testing.B) {
	cases := []struct {
		name   string
		op     vop.Opcode
		inputs []*tensor.Matrix
	}{
		{"GEMM/4x256x256", vop.OpGEMM, []*tensor.Matrix{randMatrix(4, 256, 1, -1, 1), randMatrix(256, 256, 2, -1, 1)}},
		{"Sobel/82x82", vop.OpSobel, []*tensor.Matrix{randMatrix(82, 82, 3, 0.1, 1)}},
		{"SRAD/66x66", vop.OpSRAD, []*tensor.Matrix{randMatrix(66, 66, 4, 0.1, 1)}},
		{"FFT/12x512", vop.OpFFT, []*tensor.Matrix{randMatrix(12, 512, 5, 0.1, 1)}},
		{"DCT8x8/80x80", vop.OpDCT8x8, []*tensor.Matrix{randMatrix(80, 80, 6, 0.1, 1)}},
		{"ParabolicPDE/8x512", vop.OpParabolicPDE, []*tensor.Matrix{randMatrix(8, 512, 7, 0.5, 1.5), randMatrix(8, 512, 8, 0.5, 1.5)}},
	}
	for _, c := range cases {
		for _, r := range []Rounder{Exact{}, F32{}, Int8{}} {
			b.Run(fmt.Sprintf("%s/%s", c.name, r.Name()), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					out, err := Exec(c.op, c.inputs, nil, r)
					if err != nil {
						b.Fatal(err)
					}
					tensor.PutMatrix(out)
				}
			})
		}
	}
}
