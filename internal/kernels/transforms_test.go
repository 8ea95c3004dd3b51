package kernels

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// ---- DCT ----

func TestDCTConstantBlockIsDCOnly(t *testing.T) {
	in := tensor.NewMatrix(8, 8)
	for i := range in.Data {
		in.Data[i] = 3
	}
	out, err := Exec(vop.OpDCT8x8, []*tensor.Matrix{in}, nil, Exact{})
	if err != nil {
		t.Fatal(err)
	}
	// Orthonormal DCT of a constant c over an 8x8 block: DC = 8c.
	if math.Abs(out.At(0, 0)-24) > 1e-9 {
		t.Fatalf("DC = %g want 24", out.At(0, 0))
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if i == 0 && j == 0 {
				continue
			}
			if math.Abs(out.At(i, j)) > 1e-9 {
				t.Fatalf("AC(%d,%d) = %g want 0", i, j, out.At(i, j))
			}
		}
	}
}

func TestDCTInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		in := randMatrix(16, 16, seed, -10, 10)
		out, err := Exec(vop.OpDCT8x8, []*tensor.Matrix{in}, nil, Exact{})
		if err != nil {
			return false
		}
		back, err := IDCT8x8(out)
		if err != nil {
			return false
		}
		return maxAbsDiff(back.Data, in.Data) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDCTParseval(t *testing.T) {
	in := randMatrix(8, 8, 7, -1, 1)
	out, _ := Exec(vop.OpDCT8x8, []*tensor.Matrix{in}, nil, Exact{})
	var eIn, eOut float64
	for i := range in.Data {
		eIn += in.Data[i] * in.Data[i]
		eOut += out.Data[i] * out.Data[i]
	}
	if math.Abs(eIn-eOut) > 1e-9*eIn {
		t.Fatalf("energy not preserved: %g vs %g", eIn, eOut)
	}
}

func TestDCTAlignmentError(t *testing.T) {
	if _, err := Exec(vop.OpDCT8x8, []*tensor.Matrix{tensor.NewMatrix(12, 8)}, nil, Exact{}); err == nil {
		t.Fatal("unaligned input should error")
	}
	if _, err := IDCT8x8(tensor.NewMatrix(12, 8)); err == nil {
		t.Fatal("unaligned IDCT should error")
	}
}

// ---- DWT ----

func TestDWTRowInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 * (2 + r.Intn(30)) // even lengths
		row := make([]float64, n)
		orig := make([]float64, n)
		for i := range row {
			row[i] = r.NormFloat64()
			orig[i] = row[i]
		}
		lift97(row)
		unlift97(row)
		return maxAbsDiff(row, orig) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDWTConstantSignalHighPassIsZero(t *testing.T) {
	row := make([]float64, 16)
	for i := range row {
		row[i] = 5
	}
	lift97(row)
	// High-pass half (second half) of a constant signal must vanish.
	for i := 8; i < 16; i++ {
		if math.Abs(row[i]) > 1e-9 {
			t.Fatalf("high-pass[%d] = %g want 0", i, row[i])
		}
	}
}

func Test2DDWTShapeAndDeterminism(t *testing.T) {
	in := randMatrix(32, 32, 11, 0, 1)
	a, err := Exec(vop.OpFDWT97, []*tensor.Matrix{in}, nil, Exact{})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Exec(vop.OpFDWT97, []*tensor.Matrix{in}, nil, Exact{})
	if !a.Equal(b) {
		t.Fatal("DWT not deterministic")
	}
	if a.Rows != 32 || a.Cols != 32 {
		t.Fatal("DWT changed shape")
	}
}

// ---- FFT ----

func TestFFTImpulseIsFlat(t *testing.T) {
	in := tensor.NewMatrix(1, 16)
	in.Data[0] = 1 // unit impulse
	out, err := Exec(vop.OpFFT, []*tensor.Matrix{in}, nil, Exact{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out.Data {
		if math.Abs(v-1) > 1e-9 {
			t.Fatalf("bin %d magnitude %g want 1", i, v)
		}
	}
}

func TestFFTSinePeaksAtBin(t *testing.T) {
	const n, k = 64, 5
	in := tensor.NewMatrix(1, n)
	for i := 0; i < n; i++ {
		in.Data[i] = math.Sin(2 * math.Pi * k * float64(i) / n)
	}
	out, _ := Exec(vop.OpFFT, []*tensor.Matrix{in}, nil, Exact{})
	// A pure sine puts n/2 magnitude at bins k and n-k.
	if math.Abs(out.Data[k]-n/2) > 1e-9 || math.Abs(out.Data[n-k]-n/2) > 1e-9 {
		t.Fatalf("peaks: %g/%g want %d", out.Data[k], out.Data[n-k], n/2)
	}
	for i := range out.Data {
		if i == k || i == n-k {
			continue
		}
		if out.Data[i] > 1e-9 {
			t.Fatalf("leakage at bin %d: %g", i, out.Data[i])
		}
	}
}

func TestFFTInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 << (2 + r.Intn(7))
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
			orig[i] = x[i]
		}
		fftPlanned(x)
		IFFTInPlace(x)
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTParseval(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	n := 128
	x := make([]complex128, n)
	var eTime float64
	for i := range x {
		x[i] = complex(r.NormFloat64(), 0)
		eTime += real(x[i]) * real(x[i])
	}
	fftPlanned(x)
	var eFreq float64
	for i := range x {
		eFreq += cmplx.Abs(x[i]) * cmplx.Abs(x[i])
	}
	if math.Abs(eFreq/float64(n)-eTime) > 1e-9*eTime {
		t.Fatalf("Parseval violated: %g vs %g", eFreq/float64(n), eTime)
	}
}

func TestFFTNonPow2Error(t *testing.T) {
	if _, err := Exec(vop.OpFFT, []*tensor.Matrix{tensor.NewMatrix(2, 12)}, nil, Exact{}); err == nil {
		t.Fatal("non-pow2 FFT should error")
	}
}

// ---- Inverse transforms: the oracles the round-trip tests invert with ----

// IDCT8x8 inverts execDCT8x8 exactly (orthonormal basis transpose).
func IDCT8x8(in *tensor.Matrix) (*tensor.Matrix, error) {
	if in.Rows%8 != 0 || in.Cols%8 != 0 {
		return nil, fmt.Errorf("kernels: IDCT8x8 input %dx%d not a multiple of 8", in.Rows, in.Cols)
	}
	tmp := tensor.NewMatrix(in.Rows, in.Cols)
	// Inverse column pass: v[y] = Σk basis[k][y]*c[k].
	for br := 0; br < in.Rows; br += 8 {
		for col := 0; col < in.Cols; col++ {
			for y := 0; y < 8; y++ {
				var s float64
				for k := 0; k < 8; k++ {
					s += dct8Basis[k][y] * in.Data[(br+k)*in.Cols+col]
				}
				tmp.Data[(br+y)*in.Cols+col] = s
			}
		}
	}
	// Inverse row pass: v[x] = Σk basis[k][x]*c[k].
	out := tensor.NewMatrix(in.Rows, in.Cols)
	for row := 0; row < in.Rows; row++ {
		base := row * in.Cols
		for bc := 0; bc < in.Cols; bc += 8 {
			for x := 0; x < 8; x++ {
				var s float64
				for k := 0; k < 8; k++ {
					s += dct8Basis[k][x] * tmp.Data[base+bc+k]
				}
				out.Data[base+bc+x] = s
			}
		}
	}
	return out, nil
}

// IFFTInPlace computes the inverse DFT (with 1/n normalization).
func IFFTInPlace(x []complex128) {
	n := len(x)
	for i := range x {
		x[i] = cmplx.Conj(x[i])
	}
	fftPlanned(x)
	for i := range x {
		x[i] = cmplx.Conj(x[i]) / complex(float64(n), 0)
	}
}

// lift97 is the allocating convenience form of lift97Scratch.
func lift97(x []float64) {
	lift97Scratch(x, make([]float64, len(x)))
}

// unlift97 inverts lift97 exactly.
func unlift97(x []float64) {
	n := len(x)
	if n < 2 {
		return
	}
	// Re-interleave.
	buf := make([]float64, n)
	half := (n + 1) / 2
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			buf[i] = x[i/2]
		} else {
			buf[i] = x[half+i/2]
		}
	}
	copy(x, buf)
	at := func(i int) float64 {
		if i < 0 {
			i = -i
		}
		if i >= n {
			i = 2*(n-1) - i
		}
		return x[i]
	}
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			x[i] /= dwtKappa
		} else {
			x[i] *= dwtKappa
		}
	}
	for i := 0; i < n; i += 2 {
		x[i] -= dwtDelta * (at(i-1) + at(i+1))
	}
	for i := 1; i < n; i += 2 {
		x[i] -= dwtGamma * (at(i-1) + at(i+1))
	}
	for i := 0; i < n; i += 2 {
		x[i] -= dwtBeta * (at(i-1) + at(i+1))
	}
	for i := 1; i < n; i += 2 {
		x[i] -= dwtAlpha * (at(i-1) + at(i+1))
	}
}
