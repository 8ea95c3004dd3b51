package kernels

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync/atomic"

	"shmt/internal/lanes"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// execFFT computes the per-row radix-2 FFT of the real input (row length
// must be a power of two) and returns the magnitude spectrum, matching how
// the CUDA SDK sample post-processes batched 1-D FFTs for comparison. The
// butterfly passes and the magnitude computation form the kernel's two stage
// boundaries. Rows transform independently, one at a time in one scratch
// buffer.
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
	fftRows(in, re, im, planFFT(in.Cols))
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

// fftRows transforms every row of in with plan p into the dense real and
// imaginary planes of the spectrum.
func fftRows(in, re, im *tensor.Matrix, p *fftPlan) {
	n := in.Cols
	buf := tensor.GetComplex(n)
	for row := 0; row < in.Rows; row++ {
		lanes.Gather(buf, in.Row(row), p.rev)
		p.butterflies(buf)
		lanes.Split(re.Data[row*n:][:n], im.Data[row*n:][:n], buf)
	}
	tensor.PutComplex(buf)
}

func hypotSpan(_ float64, d, x, y []float64) { lanes.Hypot(d, x, y) }

// fftPlan is the schedule of an iterative radix-2 Cooley-Tukey DFT of one
// power-of-two size n: the bit-reversal permutation and every butterfly
// stage's twiddles. It is built once per size and never written after, so
// every row and every goroutine shares it.
type fftPlan struct {
	// rev[i] is i with its log2(n) bits reversed: the transform's input in
	// bit-reversed order is x[rev[0]], x[rev[1]], …
	rev []int32
	// tw holds the stages' twiddles back to back: the stage of butterflies
	// half apart reads tw[half-1 : 2*half-1].
	tw []complex128
}

// fftPlans holds the plan of each size, indexed by log2 n.
var fftPlans [bits.UintSize]atomic.Pointer[fftPlan]

// planFFT returns the shared plan for n-point transforms (n a power of two),
// building it on first use.
func planFFT(n int) *fftPlan {
	slot := &fftPlans[bits.TrailingZeros(uint(n))]
	if p := slot.Load(); p != nil {
		return p
	}
	slot.CompareAndSwap(nil, newFFTPlan(n))
	return slot.Load()
}

// newFFTPlan builds the plan for n-point transforms. The permutation is the
// classic swap walk's, and a stage's twiddles are the values the w *= wl
// recurrence steps through, made by that recurrence, so a planned transform
// multiplies by the very bits the recurrence would.
func newFFTPlan(n int) *fftPlan {
	p := &fftPlan{rev: make([]int32, n), tw: make([]complex128, n-1)}
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		p.rev[i] = int32(j)
	}
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		w := complex(1, 0)
		stage := p.tw[length/2-1 : length-1]
		for j := range stage {
			stage[j] = w
			// w *= wl, each product rounded before the add
			w = complex(float64(real(w)*real(wl))-float64(imag(w)*imag(wl)),
				float64(real(w)*imag(wl))+float64(imag(w)*real(wl)))
		}
	}
	return p
}

// butterflies runs the transform's stages in place over x, which holds the
// input in bit-reversed order and is as long as the plan.
func (p *fftPlan) butterflies(x []complex128) {
	for half := 1; half < len(x); half <<= 1 {
		lanes.Butterflies(x, p.tw[half-1:2*half-1])
	}
}
