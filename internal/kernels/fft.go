package kernels

import (
	"fmt"
	"math"
	"math/cmplx"

	"shmt/internal/parallel"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// execFFT computes the per-row radix-2 FFT of the real input (row length
// must be a power of two) and returns the magnitude spectrum, matching how
// the CUDA SDK sample post-processes batched 1-D FFTs for comparison. The
// butterfly passes and the magnitude computation form the kernel's two stage
// boundaries. Rows transform independently (each with its own scratch
// buffer), so the parallel fan-out is bit-identical to the sequential loop.
func execFFT(inputs []*tensor.Matrix, dst *tensor.Matrix, r Rounder) (*tensor.Matrix, error) {
	if err := checkInputs(vop.OpFFT, inputs, 1); err != nil {
		return nil, err
	}
	in := inputs[0]
	if in.Cols == 0 || in.Cols&(in.Cols-1) != 0 {
		return nil, fmt.Errorf("kernels: FFT row length %d not a power of two", in.Cols)
	}
	re := tensor.GetMatrixUninit(in.Rows, in.Cols)
	im := tensor.GetMatrixUninit(in.Rows, in.Cols)
	fftSweeps.For(in.Rows, parallel.RowGrain(in.Cols), fftArgs{in: in, re: re, im: im}, fftRows)
	r.Round(re.Data) // stage 1: the complex spectrum leaves the butterflies
	r.Round(im.Data)

	out, err := outFor(dst, in.Rows, in.Cols)
	if err != nil {
		tensor.PutMatrix(re)
		tensor.PutMatrix(im)
		return nil, err
	}
	forSpans2(out, re, im, 0, hypotSpan)
	RoundMatrix(r, out) // stage 2
	tensor.PutMatrix(re)
	tensor.PutMatrix(im)
	return out, nil
}

// fftArgs are the butterfly pass's operands: the input rows and the dense
// real and imaginary planes of the spectrum.
type fftArgs struct{ in, re, im *tensor.Matrix }

var fftSweeps parallel.Pooled[fftArgs]

func fftRows(a *fftArgs, lo, hi int) {
	in, re, im := a.in, a.re, a.im
	inS := in.RowStride()
	buf := tensor.GetComplex(in.Cols)
	for row := lo; row < hi; row++ {
		baseIn := row * inS
		base := row * in.Cols
		for j := 0; j < in.Cols; j++ {
			buf[j] = complex(in.Data[baseIn+j], 0)
		}
		FFTInPlace(buf)
		for j := 0; j < in.Cols; j++ {
			re.Data[base+j] = real(buf[j])
			im.Data[base+j] = imag(buf[j])
		}
	}
	tensor.PutComplex(buf)
}

func hypotSpan(_ float64, d, x, y []float64) {
	for i := range d {
		d[i] = math.Hypot(x[i], y[i])
	}
}

// FFTInPlace computes the in-place iterative radix-2 Cooley-Tukey DFT of x;
// len(x) must be a power of two.
func FFTInPlace(x []complex128) {
	n := len(x)
	if n <= 1 {
		return
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for j := 0; j < length/2; j++ {
				u := x[i+j]
				v := x[i+j+length/2] * w
				x[i+j] = u + v
				x[i+j+length/2] = u - v
				w *= wl
			}
		}
	}
}
