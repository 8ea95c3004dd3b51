package device

import (
	"shmt/internal/kernels"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// Staged is a staged input set for a device that casts its operands: every
// operand already materialized into a dense buffer and converted to the
// device's arithmetic, exactly as the device's dispatch path would have
// staged it — which is what keeps executions that reuse a resident cast
// bit-identical to those that cast afresh.
type Staged struct {
	// Inputs are the device-precision operand buffers, parallel to the
	// HLOP's inputs.
	Inputs []*tensor.Matrix
	// Keep marks operands owned by someone else — device-resident shared
	// operands (a GEMM right-hand matrix, a convolution kernel) staged once
	// and reused across consecutive HLOPs. ExecuteStaged must not release
	// them.
	Keep []bool

	// Backing for Inputs and Keep at the arity every VOP has (one or two
	// operands), so a staged set is one object, recycled through stagedSets.
	in   [2]*tensor.Matrix
	keep [2]bool
}

// stagedSets recycles the staged sets Release is done with: an HLOP's
// staging costs no allocation of its own.
var stagedSets tensor.Spares[*Staged]

// NewStaged returns an empty staged set for n operands, none of them marked
// Keep. It belongs to the caller until its Release.
func NewStaged(n int) *Staged {
	s := stagedSets.Get()
	if s == nil {
		s = new(Staged)
	}
	if n <= len(s.in) {
		s.Inputs, s.Keep = s.in[:n], s.keep[:n]
	} else {
		s.Inputs, s.Keep = make([]*tensor.Matrix, n), make([]bool, n)
	}
	return s
}

// Release returns every owned buffer to the arena and the set itself to
// NewStaged: s must not be used afterwards. Safe to call after a failed
// dispatch; shared (Keep) operands stay resident for their other consumers.
func (s *Staged) Release() {
	for i, m := range s.Inputs {
		if m != nil && (s.Keep == nil || !s.Keep[i]) {
			tensor.PutMatrix(m)
		}
	}
	*s = Staged{}
	stagedSets.Put(s)
}

// Prestager is implemented by every device whose compute half is "cast each
// operand to the device's number format, then execute over the cast
// operands" — the Edge TPU (quantize into private memory) and the GPU and DSP
// (FP32 / fixed-point cast in shared memory) alike. Splitting the two
// lets the engine keep an operand many HLOPs share (a GEMM right-hand
// matrix, a convolution kernel) cast once per round in its resident cache.
// The CPU computes on the operands as they are and does not implement it.
type Prestager interface {
	// StageInput materializes and casts one operand exactly as the dispatch
	// path would.
	StageInput(op vop.Opcode, in *tensor.Matrix) *tensor.Matrix
	// ExecuteStaged runs the opcode over a fully prestaged operand set; dst
	// is Compute's. It consumes st: owned buffers are released, Keep
	// operands are left untouched.
	ExecuteStaged(op vop.Opcode, st *Staged, dst *tensor.Matrix, attrs map[string]float64) (*tensor.Matrix, error)
}

// ComputeStaged is the compute half of any Prestager: stage each operand,
// then execute over the staged set.
func ComputeStaged(p Prestager, op vop.Opcode, inputs []*tensor.Matrix, dst *tensor.Matrix, attrs map[string]float64) (*tensor.Matrix, error) {
	st := NewStaged(len(inputs))
	for i, in := range inputs {
		st.Inputs[i] = p.StageInput(op, in)
	}
	return p.ExecuteStaged(op, st, dst, attrs)
}

// HostCast is the Prestager of a device that computes out of shared host
// memory at a precision of its own: operands are cast with the device's
// rounder, every kernel stage rounds with it too, and the result is written
// through dst when there is one.
type HostCast struct{ Rounder kernels.Rounder }

// StageInput implements Prestager: a stride-aware gather (inputs may be
// views) followed by the precision cast — the runtime's data-type casting of
// §3.3.2.
func (c HostCast) StageInput(_ vop.Opcode, in *tensor.Matrix) *tensor.Matrix {
	m := tensor.Materialize(in)
	c.Rounder.Round(m.Data)
	return m
}

// ExecuteStaged implements Prestager.
func (c HostCast) ExecuteStaged(op vop.Opcode, st *Staged, dst *tensor.Matrix, attrs map[string]float64) (*tensor.Matrix, error) {
	out, err := kernels.ExecInto(op, st.Inputs, dst, attrs, c.Rounder)
	st.Release() // kernels never retain or return their inputs
	return out, err
}
