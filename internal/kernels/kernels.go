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

	"shmt/internal/lanes"
	"shmt/internal/quant"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

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

// Round implements Rounder: it casts data to float32 and back
// (lanes.RoundF32).
func (F32) Round(data []float64) { lanes.RoundF32(data) }

// Name implements Rounder.
func (F32) Name() string { return "fp32" }

// Int8 requantizes every value through affine INT8, recalibrating scale and
// zero point on the stage's own distribution — the per-layer requantization
// a TFLite-compiled Edge TPU model performs between operators.
type Int8 struct{}

// Round implements Rounder: a min/max calibration scan, then the
// per-element round trip.
func (Int8) Round(data []float64) {
	quant.CalibrateAffine(data).RoundTripInPlace(data)
}

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

// forSpans1 applies fn over the rows of two equally shaped matrices, or over
// their whole flat payloads in one call when both are gap-free. Every caller
// applies element-independent math, so both layouts give the same bits.
func forSpans1(out, a *tensor.Matrix, fn func(dst, x []float64)) {
	if out.IsContiguous() && a.IsContiguous() {
		fn(out.Data[:out.Len()], a.Data[:out.Len()])
		return
	}
	for i := 0; i < out.Rows; i++ {
		fn(out.Row(i), a.Row(i))
	}
}

// forSpans2 is forSpans1 over three equally shaped matrices; c is a scalar
// operand handed to every span (0 where fn reads none).
func forSpans2(out, a, b *tensor.Matrix, c float64, fn func(c float64, dst, x, y []float64)) {
	if out.IsContiguous() && a.IsContiguous() && b.IsContiguous() {
		n := out.Len()
		fn(c, out.Data[:n], a.Data[:n], b.Data[:n])
		return
	}
	for i := 0; i < out.Rows; i++ {
		fn(c, out.Row(i), a.Row(i), b.Row(i))
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
