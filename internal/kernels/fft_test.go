package kernels

import (
	"encoding/binary"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// fftRecurrence is the transform the FFT kernel ran before it had plans,
// kept verbatim as the oracle: the swap walk of the bit-reversal
// permutation, then butterflies that carry each stage's twiddle from one
// iteration to the next by the w *= wl recurrence. len(x) must be a power of
// two.
func fftRecurrence(x []complex128) {
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

// fftPlanned is the planned transform of a complex sequence in place: the
// plan's permutation, then its butterflies.
func fftPlanned(x []complex128) {
	p := planFFT(len(x))
	in := append([]complex128(nil), x...)
	for j, k := range p.rev {
		x[j] = in[k]
	}
	p.butterflies(x)
}

// sameBits compares two spectra bit for bit, signed zeros and infinities
// included, and names the first difference. A NaN matches any NaN: of two
// NaN operands an x86 add or multiply returns the first one's payload, and
// which operand comes first in a commutative operation is the register
// allocator's choice, not the program's. No kernel output carries a payload:
// the magnitude is math.Hypot's, which returns the one canonical NaN.
func sameBits(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	same := func(g, w float64) bool {
		return math.Float64bits(g) == math.Float64bits(w) || math.IsNaN(g) && math.IsNaN(w)
	}
	for i := range want {
		if g, w := got[i], want[i]; !same(real(g), real(w)) || !same(imag(g), imag(w)) {
			t.Fatalf("%s: bin %d = %v, recurrence %v", what, i, g, w)
		}
	}
}

// magnitudeMatches runs the FFT kernel over the real row re under rounder r
// and requires the bits the recurrence gives through the kernel's two
// stages: the rounded spectrum, then its rounded magnitude.
func magnitudeMatches(t *testing.T, re []float64, r Rounder) {
	t.Helper()
	row, err := tensor.FromSlice(1, len(re), append([]float64(nil), re...))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Exec(vop.OpFFT, []*tensor.Matrix{row}, nil, r)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, len(re))
	for i, v := range re {
		x[i] = complex(v, 0)
	}
	fftRecurrence(x)
	sr, si, want := make([]float64, len(x)), make([]float64, len(x)), make([]float64, len(x))
	for i, v := range x {
		sr[i], si[i] = real(v), imag(v)
	}
	r.Round(sr)
	r.Round(si)
	for i := range want {
		want[i] = math.Hypot(sr[i], si[i])
	}
	r.Round(want)
	for i := range want {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s, %d points: bin %d = %v (%#x), recurrence %v (%#x)", r.Name(), len(re), i,
				got.Data[i], math.Float64bits(got.Data[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// specials are the values a spectrum must carry through a plan exactly as
// through the recurrence.
var specials = []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8_0000_dead_beef),
	math.Copysign(0, -1), 0, math.MaxFloat64, math.SmallestNonzeroFloat64}

// TestFFTPlanMatchesRecurrence: for every power-of-two size from 2 to 4096,
// on finite inputs and on inputs strewn with infinities, NaNs and negative
// zeros, the planned transform returns the recurrence's spectrum, and the
// FFT kernel, whose real rows are gathered through the plan's permutation,
// returns the recurrence's magnitudes bit for bit under the exact, FP32 and
// INT8 rounders.
func TestFFTPlanMatchesRecurrence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 2; n <= 4096; n <<= 1 {
		for trial := 0; trial < 3; trial++ {
			re := make([]float64, n)
			x := make([]complex128, n)
			for i := range x {
				re[i] = rng.NormFloat64()
				if trial > 0 && rng.Intn(8) == 0 {
					re[i] = specials[rng.Intn(len(specials))]
				}
				x[i] = complex(re[i], rng.NormFloat64())
				if trial == 2 && rng.Intn(8) == 0 {
					x[i] = complex(specials[rng.Intn(len(specials))], specials[rng.Intn(len(specials))])
				}
			}
			want := append([]complex128(nil), x...)
			fftRecurrence(want)
			fftPlanned(x)
			sameBits(t, "complex", x, want)
			for _, r := range []Rounder{Exact{}, F32{}, Int8{}} {
				magnitudeMatches(t, re, r)
			}
		}
	}
}

// FuzzFFTPlan compares the planned transform with the recurrence on
// arbitrary bit patterns: the input's bytes, eight to a float64, make a
// complex sequence of the largest power-of-two length they fill, and their
// real parts a row for the FFT kernel.
func FuzzFFTPlan(f *testing.F) {
	seed := make([]byte, 0, 16*8)
	for _, v := range append(specials, 1, -2.5, 3e-300, 1e300, 0.1, -7, 42, 1.5) {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed)
	f.Add(seed[:32])
	f.Fuzz(func(t *testing.T, data []byte) {
		n := 2
		if len(data) < 16*n {
			return
		}
		for 2*n <= 4096 && 16*2*n <= len(data) {
			n *= 2
		}
		x := make([]complex128, n)
		re := make([]float64, n)
		for i := range x {
			re[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
			x[i] = complex(re[i], math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:])))
		}
		want := append([]complex128(nil), x...)
		fftRecurrence(want)
		fftPlanned(x)
		sameBits(t, "fuzzed", x, want)
		magnitudeMatches(t, re, Exact{})
	})
}
