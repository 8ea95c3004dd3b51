package kernels

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"shmt/internal/parallel"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// identityInputs builds a valid input tuple for op, sized so the parallel
// paths genuinely split: > parGrain elements per matrix, > reduceChunk
// elements for the reductions, power-of-two cols for FFT, multiples of 8
// for DCT8x8. Values are positive so Log/Sqrt/Rsqrt and Black-Scholes stay
// in domain.
func identityInputs(t *testing.T, op vop.Opcode, rng *rand.Rand) []*tensor.Matrix {
	t.Helper()
	fill := func(rows, cols int) *tensor.Matrix {
		m := tensor.NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = 0.1 + 2*rng.Float64()
		}
		return m
	}
	switch op {
	case vop.OpGEMM:
		return []*tensor.Matrix{fill(96, 80), fill(80, 64)}
	case vop.OpConv:
		return []*tensor.Matrix{fill(96, 96), fill(5, 5)}
	case vop.OpReduceSum, vop.OpReduceAverage, vop.OpReduceMax, vop.OpReduceMin, vop.OpReduceHist256:
		// 96*1024 = 98304 > reduceChunk, so the chunked tree has >1 leaf.
		return []*tensor.Matrix{fill(96, 1024)}
	default:
		in := []*tensor.Matrix{fill(96, 128)}
		for i := 1; i < op.NumInputs(); i++ {
			in = append(in, fill(96, 128))
		}
		return in
	}
}

// TestParallelBitIdentity is the determinism contract of internal/parallel:
// for every opcode and every rounder, the kernel output is bit-identical
// whether the host pool runs 1, 2, or NumCPU workers. Chunk boundaries
// derive only from (n, grain), never from the worker count, so this must
// hold exactly — math.Float64bits equality, not a tolerance.
func TestParallelBitIdentity(t *testing.T) {
	rounders := []Rounder{Exact{}, F32{}, Int8{}}
	counts := []int{1, 2, runtime.NumCPU()}
	attrs := map[string]float64{
		"hist_lo": 0, "hist_hi": 2.5, // covers the fill range
		"steps": 3, // multi-step Hotspot exercises the grid swap
	}
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)

	for _, op := range vop.All() {
		for _, r := range rounders {
			rng := rand.New(rand.NewSource(7))
			inputs := identityInputs(t, op, rng)
			var ref *tensor.Matrix
			for _, w := range counts {
				parallel.SetWorkers(w)
				got, err := Exec(op, inputs, attrs, r)
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", op, r.Name(), w, err)
				}
				if ref == nil {
					ref = got
					continue
				}
				if got.Rows != ref.Rows || got.Cols != ref.Cols {
					t.Fatalf("%s/%s workers=%d: shape %dx%d, want %dx%d",
						op, r.Name(), w, got.Rows, got.Cols, ref.Rows, ref.Cols)
				}
				for i := range got.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(ref.Data[i]) {
						t.Fatalf("%s/%s workers=%d: elem %d = %x, want %x (sequential)",
							op, r.Name(), w, i,
							math.Float64bits(got.Data[i]), math.Float64bits(ref.Data[i]))
					}
				}
			}
		}
	}
}

// TestRounderBitIdentity checks the rounders themselves (also parallelized)
// under the same contract, independent of any kernel.
func TestRounderBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := make([]float64, 100_000)
	for i := range data {
		data[i] = rng.NormFloat64() * 10
	}
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)

	for _, r := range []Rounder{F32{}, Int8{}} {
		ref := append([]float64(nil), data...)
		parallel.SetWorkers(1)
		r.Round(ref)
		for _, w := range []int{2, runtime.NumCPU()} {
			got := append([]float64(nil), data...)
			parallel.SetWorkers(w)
			r.Round(got)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("%s workers=%d: elem %d = %x, want %x",
						r.Name(), w, i, math.Float64bits(got[i]), math.Float64bits(ref[i]))
				}
			}
		}
	}
}
