// Package kernels implements the compute kernels of the paper's ten
// benchmark applications (Table 2) and the primitive VOPs of Table 1, in
// pure Go.
//
// Every kernel is written once against float64 data and parameterized by a
// Rounder that is applied in place at each internal stage boundary. Running
// with the Exact rounder gives the reference result (the role of the paper's
// CPU/GPU baseline); the F32 rounder reproduces the GPU's single-precision
// path; the Int8 rounder reproduces the Edge TPU's per-layer requantization
// (NPU mode), so quality loss is genuinely computed arithmetic, not a model.
package kernels

import (
	"fmt"

	"shmt/internal/parallel"
	"shmt/internal/quant"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// parGrain is the elements-per-chunk grain for parallel element-wise
// sweeps. Chunk boundaries derive only from the data length, so outputs are
// bit-identical at every worker count (see internal/parallel).
const parGrain = 4096

// Rounder degrades a stage's intermediate values to a device's native
// precision, in place.
type Rounder interface {
	Round(data []float64)
	Name() string
}

// RoundMatrix applies r to m's logical elements, stride-aware. Contiguous
// matrices round in one call, exactly like the historical r.Round(m.Data).
// Strided views round per row when r maps every element independently of
// the rest of the slice (Exact, F32), which is bit-identical to rounding the
// values as one contiguous slice; calibrating rounders (INT8 affine,
// block-wise quantizers, the DSP's fixed point) gather the view into a
// contiguous scratch buffer first, so their calibration sees the same
// distribution as on the materialized-copy path, then scatter back.
func RoundMatrix(r Rounder, m *tensor.Matrix) {
	if m.IsContiguous() {
		r.Round(m.Data)
		return
	}
	switch r.(type) {
	case Exact, F32:
		for i := 0; i < m.Rows; i++ {
			r.Round(m.Row(i))
		}
		return
	}
	tmp := tensor.Materialize(m)
	r.Round(tmp.Data)
	m.CopyFrom(tmp)
	tensor.PutMatrix(tmp)
}

// Exact performs no rounding: full float64 precision (CPU reference path).
type Exact struct{}

// Round is a no-op.
func (Exact) Round([]float64) {}

// Name implements Rounder.
func (Exact) Name() string { return "fp64" }

// F32 rounds every value to float32, the GPU's native precision.
type F32 struct{}

// Round implements Rounder.
func (F32) Round(data []float64) {
	if len(data) <= parGrain { // one chunk, rounded here: DCT8x8 rounds per 8×8 block
		roundF32(data)
		return
	}
	roundSweeps.For(len(data), parGrain, roundArgs{data: data}, roundF32Chunk)
}

// roundF32 casts chunk to float32 and back: four lanes at a time on AVX
// hosts (roundF32Lanes), the rest one at a time.
func roundF32(chunk []float64) {
	for i := roundF32Lanes(chunk); i < len(chunk); i++ {
		chunk[i] = float64(float32(chunk[i]))
	}
}

func roundF32Chunk(a *roundArgs, lo, hi int) { roundF32(a.data[lo:hi]) }

// roundArgs are a rounding sweep's operands, for its parGrain chunks on the
// host pool.
type roundArgs struct {
	data []float64
	p    quant.AffineParams // Int8's calibration
}

var roundSweeps parallel.Pooled[roundArgs]

// Name implements Rounder.
func (F32) Name() string { return "fp32" }

// Int8 requantizes every value through affine INT8, recalibrating scale and
// zero point on the stage's own distribution — the per-layer requantization
// a TFLite-compiled Edge TPU model performs between operators.
type Int8 struct{}

// Round implements Rounder.
func (Int8) Round(data []float64) {
	// Calibration is a sequential min/max scan (its result is
	// order-independent); the per-element round-trip parallelizes.
	p := quant.CalibrateAffine(data)
	if len(data) <= parGrain {
		p.RoundTripInPlace(data)
		return
	}
	roundSweeps.For(len(data), parGrain, roundArgs{data: data, p: p}, roundInt8Chunk)
}

func roundInt8Chunk(a *roundArgs, lo, hi int) { a.p.RoundTripInPlace(a.data[lo:hi]) }

// Name implements Rounder.
func (Int8) Name() string { return "int8" }

// attrs provides defaulted access to a VOP's scalar attributes.
type attrs map[string]float64

func (a attrs) get(name string, def float64) float64 {
	if a == nil {
		return def
	}
	if v, ok := a[name]; ok {
		return v
	}
	return def
}

// Exec runs one kernel over whole matrices at the precision of r. For
// stencil opcodes the input is expected to already include any halo the
// caller wants honoured; boundaries replicate edge values.
//
// Reduction opcodes return partial results in the canonical partial shape
// (see execReduce); MergePartials combines them.
func Exec(op vop.Opcode, inputs []*tensor.Matrix, at map[string]float64, r Rounder) (*tensor.Matrix, error) {
	return ExecInto(op, inputs, nil, at, r)
}

// ExecInto is Exec with an optional destination. When dst is non-nil it must
// have the kernel's natural output shape; the kernel then writes its result
// through dst — which may be a strided view into a larger tensor — and
// returns dst, so shared-memory devices can land partition results directly
// in the VOP output with no staging copy. Inputs may likewise be strided
// views. Reduction opcodes produce partials in their own canonical shape and
// ignore dst.
func ExecInto(op vop.Opcode, inputs []*tensor.Matrix, dst *tensor.Matrix, at map[string]float64, r Rounder) (*tensor.Matrix, error) {
	if r == nil {
		r = Exact{}
	}
	a := attrs(at)
	switch op {
	case vop.OpAdd, vop.OpSub, vop.OpMultiply, vop.OpMax, vop.OpMin:
		return execBinary(op, inputs, dst, r)
	case vop.OpLog, vop.OpSqrt, vop.OpRsqrt, vop.OpTanh, vop.OpRelu:
		return execUnary(op, inputs, dst, r)
	case vop.OpReduceSum, vop.OpReduceAverage, vop.OpReduceMax, vop.OpReduceMin, vop.OpReduceHist256:
		return execReduce(op, inputs, a, r)
	case vop.OpParabolicPDE:
		return execBlackScholes(inputs, dst, a, r)
	case vop.OpGEMM:
		return execGEMM(inputs, dst, r)
	case vop.OpConv:
		return execConv(inputs, dst, r)
	case vop.OpDCT8x8:
		return execDCT8x8(inputs, dst, r)
	case vop.OpFDWT97:
		return execFDWT97(inputs, dst, a, r)
	case vop.OpFFT:
		return execFFT(inputs, dst, r)
	case vop.OpLaplacian:
		return execLaplacian(inputs, dst, r)
	case vop.OpMeanFilter:
		return execMeanFilter(inputs, dst, r)
	case vop.OpSobel:
		return execSobel(inputs, dst, r)
	case vop.OpSRAD:
		return execSRAD(inputs, dst, a, r)
	case vop.OpStencil:
		return execHotspot(inputs, dst, a, r)
	default:
		return nil, fmt.Errorf("kernels: unsupported opcode %s", op)
	}
}

// outFor returns the buffer a kernel writes its result into: dst when the
// caller provided one (validated against the natural output shape), otherwise
// a fresh arena matrix with unspecified contents.
func outFor(dst *tensor.Matrix, rows, cols int) (*tensor.Matrix, error) {
	if dst == nil {
		return tensor.GetMatrixUninit(rows, cols), nil
	}
	if dst.Rows != rows || dst.Cols != cols {
		return nil, fmt.Errorf("kernels: destination %dx%d does not match output %dx%d", dst.Rows, dst.Cols, rows, cols)
	}
	return dst, nil
}

// forSpans1 applies fn over disjoint row-major spans of two equally shaped
// matrices. When both are gap-free the spans are parGrain-element chunks of
// the flat payload (the historical layout); strided views fall back to
// whole-row spans. Span boundaries derive only from the shape and all
// callers apply element-independent math, so results are bit-identical at
// any worker count and on either span layout.
func forSpans1(out, a *tensor.Matrix, fn func(dst, x []float64)) {
	args := spans1{out: out, a: a, fn: fn}
	if out.IsContiguous() && a.IsContiguous() {
		spans1Sweeps.For(out.Len(), parGrain, args, spans1Flat)
		return
	}
	spans1Sweeps.For(out.Rows, parallel.RowGrain(out.Cols), args, spans1Rows)
}

// spans1 are forSpans1's operands.
type spans1 struct {
	out, a *tensor.Matrix
	fn     func(dst, x []float64)
}

var spans1Sweeps parallel.Pooled[spans1]

func spans1Flat(s *spans1, lo, hi int) { s.fn(s.out.Data[lo:hi], s.a.Data[lo:hi]) }

func spans1Rows(s *spans1, lo, hi int) {
	for i := lo; i < hi; i++ {
		s.fn(s.out.Row(i), s.a.Row(i))
	}
}

// forSpans2 is forSpans1 over three equally shaped matrices; c is a scalar
// operand handed to every span (0 where fn reads none).
func forSpans2(out, a, b *tensor.Matrix, c float64, fn func(c float64, dst, x, y []float64)) {
	args := spans2{out: out, a: a, b: b, c: c, fn: fn}
	if out.IsContiguous() && a.IsContiguous() && b.IsContiguous() {
		spans2Sweeps.For(out.Len(), parGrain, args, spans2Flat)
		return
	}
	spans2Sweeps.For(out.Rows, parallel.RowGrain(out.Cols), args, spans2Rows)
}

// spans2 are forSpans2's operands.
type spans2 struct {
	out, a, b *tensor.Matrix
	c         float64
	fn        func(c float64, dst, x, y []float64)
}

var spans2Sweeps parallel.Pooled[spans2]

func spans2Flat(s *spans2, lo, hi int) {
	s.fn(s.c, s.out.Data[lo:hi], s.a.Data[lo:hi], s.b.Data[lo:hi])
}

func spans2Rows(s *spans2, lo, hi int) {
	for i := lo; i < hi; i++ {
		s.fn(s.c, s.out.Row(i), s.a.Row(i), s.b.Row(i))
	}
}

func checkInputs(op vop.Opcode, inputs []*tensor.Matrix, want int) error {
	if len(inputs) != want {
		return fmt.Errorf("kernels: %s wants %d inputs, got %d", op, want, len(inputs))
	}
	for i, in := range inputs {
		if in == nil {
			return fmt.Errorf("kernels: %s input %d is nil", op, i)
		}
	}
	return nil
}
