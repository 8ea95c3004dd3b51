// Package vop defines SHMT's virtual operations (VOPs): the
// hardware-independent opcode set through which programs offload computation
// to the virtual SHMT device (§3.2.1 and Table 1 of the paper).
//
// A VOP carries no assumption about input size; the runtime partitions it
// into device-sized HLOPs according to its parallelization model, which is
// either element-wise vector processing or tile-wise matrix processing.
package vop

import (
	"fmt"
	"math"
	"strings"

	"shmt/internal/tensor"
)

// Model is a VOP's parallelization model (the two "tiling processing model
// types" of Table 1).
type Model int

const (
	// Vector VOPs partition element-wise into contiguous page-aligned chunks.
	Vector Model = iota
	// Tile VOPs partition into square (or row-band) matrix tiles.
	Tile
)

func (m Model) String() string {
	switch m {
	case Vector:
		return "vector"
	case Tile:
		return "tile"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Opcode identifies a virtual operation.
type Opcode int

// The VOP set of Table 1. Vector-model opcodes first, then tile-model ones.
const (
	OpInvalid Opcode = iota

	// Vector processing model.
	OpAdd
	OpSub
	OpMultiply
	OpLog
	OpSqrt
	OpRsqrt
	OpTanh
	OpRelu
	OpMax
	OpMin
	OpReduceSum
	OpReduceAverage
	OpReduceMax
	OpReduceMin
	OpReduceHist256
	OpParabolicPDE // Black-Scholes parabolic PDE solve

	// Tile (matrix) processing model.
	OpConv
	OpGEMM
	OpDCT8x8
	OpFDWT97
	OpFFT
	OpLaplacian
	OpMeanFilter
	OpSobel
	OpSRAD
	OpStencil // Hotspot thermal stencil
)

var opNames = map[Opcode]string{
	OpAdd:           "add",
	OpSub:           "sub",
	OpMultiply:      "multiply",
	OpLog:           "log",
	OpSqrt:          "sqrt",
	OpRsqrt:         "rsqrt",
	OpTanh:          "tanh",
	OpRelu:          "relu",
	OpMax:           "max",
	OpMin:           "min",
	OpReduceSum:     "reduce_sum",
	OpReduceAverage: "reduce_average",
	OpReduceMax:     "reduce_max",
	OpReduceMin:     "reduce_min",
	OpReduceHist256: "reduce_hist256",
	OpParabolicPDE:  "parabolic_PDE",
	OpConv:          "conv",
	OpGEMM:          "GEMM",
	OpDCT8x8:        "DCT8x8",
	OpFDWT97:        "FDWT97",
	OpFFT:           "FFT",
	OpLaplacian:     "Laplacian",
	OpMeanFilter:    "Mean_Filter",
	OpSobel:         "Sobel",
	OpSRAD:          "SRAD",
	OpStencil:       "stencil",
}

func (op Opcode) String() string {
	if s, ok := opNames[op]; ok {
		return s
	}
	return fmt.Sprintf("Opcode(%d)", int(op))
}

// opsByLowerName inverts opNames for Parse, case-folded so wire formats can
// spell "gemm" or "GEMM" alike.
var opsByLowerName = func() map[string]Opcode {
	m := make(map[string]Opcode, len(opNames))
	for op, n := range opNames {
		m[strings.ToLower(n)] = op
	}
	return m
}()

// Parse returns the opcode whose String form is name (case-insensitive).
func Parse(name string) (Opcode, bool) {
	op, ok := opsByLowerName[strings.ToLower(name)]
	return op, ok
}

// Model returns the parallelization model of the opcode.
func (op Opcode) Model() Model {
	if op >= OpConv {
		return Tile
	}
	return Vector
}

// IsReduction reports whether the opcode aggregates its input into a small
// output (so its partitions combine by merging partial results rather than
// by strided copies).
func (op Opcode) IsReduction() bool {
	switch op {
	case OpReduceSum, OpReduceAverage, OpReduceMax, OpReduceMin, OpReduceHist256:
		return true
	}
	return false
}

// Halo returns the number of neighbouring cells each side of a tile the
// opcode needs (stencil radius). Zero means partitions are independent.
func (op Opcode) Halo() int {
	switch op {
	case OpLaplacian, OpSobel, OpStencil, OpMeanFilter, OpConv:
		return 1
	case OpSRAD:
		// SRAD's update reads the diffusion coefficient at south/east
		// neighbours, and the coefficient itself is a radius-1 function of
		// the intensities — an effective radius of 2.
		return 2
	}
	return 0
}

// NumInputs returns how many input tensors the opcode consumes.
func (op Opcode) NumInputs() int {
	switch op {
	case OpAdd, OpSub, OpMultiply, OpMax, OpMin, OpGEMM, OpConv:
		return 2
	case OpParabolicPDE:
		return 2 // spot prices, strike prices
	case OpStencil:
		return 2 // temperature, power
	}
	return 1
}

// Known reports whether op is one of the opcodes All lists.
func (op Opcode) Known() bool { return OpAdd <= op && op <= OpStencil }

// All lists every opcode in Table 1 order (vector ops, then tile ops).
func All() []Opcode {
	return []Opcode{
		OpAdd, OpSub, OpMultiply, OpLog, OpSqrt, OpRsqrt, OpTanh, OpRelu,
		OpMax, OpMin, OpReduceSum, OpReduceAverage, OpReduceMax, OpReduceMin,
		OpReduceHist256, OpParabolicPDE,
		OpConv, OpGEMM, OpDCT8x8, OpFDWT97, OpFFT, OpLaplacian, OpMeanFilter,
		OpSobel, OpSRAD, OpStencil,
	}
}

// VOP is one virtual operation: an opcode applied to input tensors, with
// optional scalar attributes (e.g. SRAD's diffusion coefficient, Hotspot's
// time step). The output shape always matches Inputs[0] except for
// reductions.
type VOP struct {
	Op     Opcode
	Inputs []*tensor.Matrix
	Attrs  map[string]float64

	// Dst, when non-nil, receives the output of an opcode that is not a
	// reduction: a dense matrix of its shape nothing else reads, overwritten
	// and returned as the report's Output. With nil the engine allocates one.
	Dst *tensor.Matrix

	// DeadlinePressure (0..1) is the serving layer's deadline urgency: how
	// close the request's timeout is to the server's critical-deadline
	// threshold. QAWS raises the effective critical fraction with it (and
	// tightens criticality ceilings), so tight-deadline work keeps
	// high-accuracy devices. It participates in the plan-cache key, so
	// callers should quantize it (the serving layer uses 1/16 steps).
	DeadlinePressure float64

	// TraceID, when set, links this VOP to a serving-layer request trace.
	// The engine stamps it onto the device-lane spans of every HLOP
	// partitioned from this VOP, so a request can be followed into the
	// engine in the Perfetto export.
	TraceID string
}

// New builds a VOP and validates its arity and shapes.
func New(op Opcode, inputs ...*tensor.Matrix) (*VOP, error) {
	v := &VOP{Op: op, Inputs: inputs, Attrs: map[string]float64{}}
	if err := v.Validate(); err != nil {
		return nil, err
	}
	return v, nil
}

// Validate checks arity and input-shape agreement.
func (v *VOP) Validate() error {
	if !v.Op.Known() {
		return fmt.Errorf("vop: unknown opcode %d", int(v.Op))
	}
	want := v.Op.NumInputs()
	if len(v.Inputs) != want {
		return fmt.Errorf("vop: %s wants %d inputs, got %d", v.Op, want, len(v.Inputs))
	}
	for i, in := range v.Inputs {
		if in == nil {
			return fmt.Errorf("vop: %s input %d is nil", v.Op, i)
		}
		if in.Len() == 0 {
			return fmt.Errorf("vop: %s input %d is empty", v.Op, i)
		}
	}
	if v.Op == OpGEMM {
		a, b := v.Inputs[0], v.Inputs[1]
		if a.Cols != b.Rows {
			return fmt.Errorf("vop: GEMM inner dimensions %d and %d differ", a.Cols, b.Rows)
		}
		return nil
	}
	if v.Op == OpConv {
		k := v.Inputs[1]
		if k.Rows != k.Cols || k.Rows%2 == 0 {
			return fmt.Errorf("vop: conv kernel must be odd square, got %dx%d", k.Rows, k.Cols)
		}
		return nil
	}
	for i := 1; i < len(v.Inputs); i++ {
		if v.Inputs[i].Rows != v.Inputs[0].Rows || v.Inputs[i].Cols != v.Inputs[0].Cols {
			return fmt.Errorf("vop: %s input %d shape %dx%d differs from input 0 %dx%d",
				v.Op, i, v.Inputs[i].Rows, v.Inputs[i].Cols, v.Inputs[0].Rows, v.Inputs[0].Cols)
		}
	}
	if v.Op == OpDCT8x8 {
		if v.Inputs[0].Rows%8 != 0 || v.Inputs[0].Cols%8 != 0 {
			return fmt.Errorf("vop: DCT8x8 input %dx%d not a multiple of 8", v.Inputs[0].Rows, v.Inputs[0].Cols)
		}
	}
	if v.Op == OpFFT {
		if !isPow2(v.Inputs[0].Cols) {
			return fmt.Errorf("vop: FFT row length %d not a power of two", v.Inputs[0].Cols)
		}
	}
	return v.validateIterations()
}

// validateIterations checks the iteration count the opcode's kernel reads
// ("levels" for FDWT97, "steps" for the stencil): the kernel truncates it to
// an int, so it must be a whole number in int64's range, and the work it
// implies must fit an HLOP's element count.
func (v *VOP) validateIterations() error {
	name := ""
	switch v.Op {
	case OpFDWT97:
		name = "levels"
	case OpStencil:
		name = "steps"
	default:
		return nil
	}
	x, ok := v.Attrs[name]
	if !ok {
		return nil
	}
	if x != math.Trunc(x) || math.Abs(x) >= 1<<63 { // NaN and ±Inf included
		return fmt.Errorf("vop: %s %s %v is not a whole number in int64's range", v.Op, name, x)
	}
	if float64(v.Inputs[0].Len())*v.WorkFactor() >= 1<<63 {
		return fmt.Errorf("vop: %s %s %v: %d elements times %v sweeps overflow the element count",
			v.Op, name, x, v.Inputs[0].Len(), v.WorkFactor())
	}
	return nil
}

// Attr returns the named attribute or def when absent.
func (v *VOP) Attr(name string, def float64) float64 {
	if v.Attrs == nil {
		return def
	}
	if x, ok := v.Attrs[name]; ok {
		return x
	}
	return def
}

// SetAttr stores a scalar attribute, allocating the map if needed.
func (v *VOP) SetAttr(name string, x float64) {
	if v.Attrs == nil {
		v.Attrs = map[string]float64{}
	}
	v.Attrs[name] = x
}

// HaloWidth returns the stencil halo this VOP's partitions must carry:
// the opcode's radius, widened by iterative attributes (the stencil VOP's
// "steps" needs a pyramid of `steps` halo rings for its partitions to stay
// independent).
func (v *VOP) HaloWidth() int {
	h := v.Op.Halo()
	if v.Op == OpStencil {
		if s := int(v.Attr("steps", 1)); s > 1 {
			h *= s
		}
	}
	return h
}

// WorkFactor returns the per-element work multiplier implied by iterative
// attributes: the stencil VOP's "steps" sweeps the grid that many times, and
// each extra DWT level re-transforms a quarter of the previous level. The
// cost model multiplies element counts by this factor. Only the levels the
// kernel runs count: it stops once a side of the input drops below 2, so the
// loop is bounded by the input's shape, not by the attribute.
func (v *VOP) WorkFactor() float64 {
	switch v.Op {
	case OpStencil:
		if s := v.Attr("steps", 1); s > 1 {
			return s
		}
	case OpFDWT97:
		if l := int(v.Attr("levels", 1)); l > 1 {
			rows, cols := v.Inputs[0].Rows, v.Inputs[0].Cols
			f, scale := 0.0, 1.0
			for i := 0; i < l && rows >= 2 && cols >= 2; i++ {
				f += scale
				scale /= 4
				rows, cols = (rows+1)/2, (cols+1)/2
			}
			return max(f, 1)
		}
	}
	return 1
}

// OutputShape returns the rows and cols of the VOP's result.
func (v *VOP) OutputShape() (rows, cols int) {
	in := v.Inputs[0]
	switch {
	case v.Op == OpGEMM:
		return in.Rows, v.Inputs[1].Cols
	case v.Op == OpReduceHist256:
		return 1, 256
	case v.Op.IsReduction():
		return 1, 1
	default:
		return in.Rows, in.Cols
	}
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }
