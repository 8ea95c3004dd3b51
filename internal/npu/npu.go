// Package npu implements the NPU execution mode of the Edge TPU (§2.2.2 and
// §4.2): out-of-domain kernels run on the accelerator as pre-built
// quantized approximators, one "model" per HLOP opcode.
//
// The paper trains MLPs per kernel, quantizes them with the TFLite/Edge-TPU
// compiler, and optionally re-trains quantization-aware (QAT) when accuracy
// drops too far. This reproduction keeps the same pipeline but replaces
// gradient training with the kernel's own math executed under INT8
// arithmetic constraints: the model's "layers" are the kernel's stage
// boundaries, each of which requantizes its activations — exactly the error
// structure a compiled Edge TPU model exhibits.
package npu

import (
	"shmt/internal/kernels"
	"shmt/internal/parallel"
	"shmt/internal/quant"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// Model is one HLOP's Edge-TPU-compatible approximator.
type Model struct {
	Op vop.Opcode
	// Layers is the model depth: the number of requantization boundaries.
	Layers int
	// QuantAware marks models re-trained in quantization-aware mode (step 4
	// of §4.2), which calibrate activations per 64-element block instead of
	// per tensor and so lose less precision.
	QuantAware bool
}

// Rounder returns the kernels.Rounder realizing this model's arithmetic.
func (m Model) Rounder() kernels.Rounder {
	if m.QuantAware {
		return BlockInt8{Block: 64}
	}
	return kernels.Int8{}
}

// Stage materializes one input activation and quantizes it at the host/TPU
// boundary, apart from RunStaged so the runtime's input prefetcher can stage
// ahead of execution. The caller owns the result.
func (m Model) Stage(in *tensor.Matrix) *tensor.Matrix {
	c := tensor.Materialize(in) // stride-aware gather: inputs may be views
	m.Rounder().Round(c.Data)   // input quantization at the host/TPU boundary
	return c
}

// RunStaged executes the model over activations already staged to device
// precision (see Stage): every layer requantizes and the result is restored
// to float64. The staged inputs are read-only — kernels never retain,
// return, or mutate them — so a staged operand may be shared across calls.
func (m Model) RunStaged(staged []*tensor.Matrix, attrs map[string]float64) (*tensor.Matrix, error) {
	return kernels.Exec(m.Op, staged, attrs, m.Rounder())
}

// BlockInt8 quantizes per fixed-size block, the finer calibration QAT
// delivers.
type BlockInt8 struct{ Block int }

// Round implements kernels.Rounder. Each block calibrates and requantizes
// independently, and parallel.For's chunks at grain Block are exactly the
// blocks, so the fan-out reproduces the sequential result bit for bit.
func (b BlockInt8) Round(data []float64) {
	blk := b.Block
	if blk <= 0 {
		blk = 64
	}
	// Grain is a multiple of the block size, so chunk edges always land on
	// block boundaries and every block is calibrated over exactly the same
	// elements as the sequential loop.
	grain := (4096 + blk - 1) / blk * blk
	parallel.For(len(data), grain, func(lo, hi int) {
		for off := lo; off < hi; off += blk {
			end := off + blk
			if end > hi {
				end = hi
			}
			quant.CalibrateAffine(data[off:end]).RoundTripInPlace(data[off:end])
		}
	})
}

// Name implements kernels.Rounder.
func (BlockInt8) Name() string { return "int8-qat" }
