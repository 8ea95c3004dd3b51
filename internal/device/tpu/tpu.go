// Package tpu implements the simulated Edge TPU of the prototype platform
// (§4.1–4.2): an INT8 matrix accelerator reached over a PCIe M.2 link, with
// 8 MB of private device memory.
//
// The device runs HLOPs in one of two modes, mirroring §4.2:
//
//   - Matrix mode ("use Edge TPU as matrix accelerators", §2.2.1): for
//     natively matrix-shaped opcodes (GEMM, conv) the hardware executes one
//     systolic pass — inputs quantize at the boundary, accumulation is wide.
//   - NPU mode (§2.2.2): every other opcode runs as a pre-built quantized
//     approximator, whose per-layer requantization is where the quality
//     loss the QAWS policies manage comes from.
//
// The paper trains an MLP per kernel and quantizes it with the
// TFLite/Edge-TPU compiler (§4.2); its step 4, quantization-aware
// re-training when accuracy drops too far, is not reproduced. In place of a
// trained network the NPU mode runs the kernel's own math under INT8
// arithmetic: inputs quantize at the boundary and every stage boundary of
// the kernel requantizes its activations (kernels.Int8) — exactly the error
// structure a compiled Edge TPU model exhibits.
package tpu

import (
	"fmt"

	"shmt/internal/device"
	"shmt/internal/interconnect"
	"shmt/internal/kernels"
	"shmt/internal/quant"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// Config tunes the simulated Edge TPU.
type Config struct {
	// ThroughputScale multiplies modelled throughputs (default 1).
	ThroughputScale float64
	// Slowdown ≥ 1 scales the virtual platform down (throughput and link
	// bandwidth divide by it) so reduced-size experiments reproduce the
	// full-size timeline. Default 1.
	Slowdown float64
	// MemoryBytes overrides the device-memory capacity (default 8 MB).
	MemoryBytes int64
}

// Device is the simulated Edge TPU.
type Device struct {
	name string
	cfg  Config
}

// New returns an Edge TPU device named "tpu".
func New(cfg Config) *Device {
	if cfg.ThroughputScale <= 0 {
		cfg.ThroughputScale = 1
	}
	if cfg.Slowdown < 1 {
		cfg.Slowdown = 1
	}
	if cfg.MemoryBytes == 0 {
		cfg.MemoryBytes = 8 << 20
	}
	return &Device{name: "tpu", cfg: cfg}
}

var _ device.Device = (*Device)(nil)

// Name implements device.Device.
func (d *Device) Name() string { return d.name }

// Kind implements device.Device.
func (d *Device) Kind() device.Kind { return device.TPU }

// AccuracyRank implements device.Device: INT8 is the least accurate class.
func (d *Device) AccuracyRank() int { return 3 }

// Supports implements device.Device. The Edge TPU covers every VOP in the
// table: matrix ops natively, the rest through NPU models (§2.2.2 — "we
// intensively used NPUs as our solutions for Edge TPU implementations").
func (d *Device) Supports(op vop.Opcode) bool { return op.Known() }

// matrixMode reports whether the opcode runs natively on the systolic array
// (§2.2.1): GEMM and convolution are the hardware's home domain, and the
// blockwise DCT and the lifting DWT are linear transforms that lower to
// fixed-weight matrix multiplications (as TCUSCAN/GPTPU do for reductions
// and transforms). Matrix-mode ops quantize inputs once, accumulate wide
// (INT32, as the real systolic array does), and requantize only the final
// output — which is why the paper's DCT/DWT quality loss is tiny while
// NPU-mode kernels lose precision at every layer.
func matrixMode(op vop.Opcode) bool {
	switch op {
	case vop.OpGEMM, vop.OpConv, vop.OpDCT8x8, vop.OpFDWT97:
		return true
	case vop.OpReduceSum, vop.OpReduceAverage:
		// Summations lower to a matrix-vector product against ones, the
		// TCUSCAN/GPTPU trick the paper cites for reductions (§2.2.1):
		// INT8 inputs, wide INT32 accumulation, one output requant.
		return true
	}
	return false
}

// ExecuteInto implements device.Device.
func (d *Device) ExecuteInto(op vop.Opcode, inputs []*tensor.Matrix, dst *tensor.Matrix, attrs map[string]float64) (*tensor.Matrix, error) {
	return device.Dispatch(d, op, inputs, dst, attrs)
}

// Admit implements device.Device: a working set that overflows device
// memory is refused with ErrTooLarge, which drives the runtime's split.
func (d *Device) Admit(op vop.Opcode, inputs []*tensor.Matrix) (device.Ticket, error) {
	return device.Ticket{}, d.checkFits(op, inputs)
}

// Compute implements device.Device. The TPU sits behind PCIe with private
// memory and quantized staging, so it ignores dst and always returns a fresh
// materialized buffer; the runtime detects result != dst and copies it into
// the VOP output as soon as it is computed.
//
// Compute is staging followed by ExecuteStaged — the same path the resident
// operand cache takes, which is what makes runs that use it bit-identical.
func (d *Device) Compute(_ device.Ticket, op vop.Opcode, inputs []*tensor.Matrix, dst *tensor.Matrix, attrs map[string]float64) (*tensor.Matrix, error) {
	return device.ComputeStaged(d, op, inputs, dst, attrs)
}

var _ device.Prestager = (*Device)(nil)

// StageInput implements device.Prestager: one operand's boundary staging —
// a stride-aware gather into a dense buffer (inputs may be views) followed
// by INT8 quantization, the same in both modes. The caller owns the result.
func (d *Device) StageInput(_ vop.Opcode, in *tensor.Matrix) *tensor.Matrix {
	c := tensor.Materialize(in)
	kernels.Int8{}.Round(c.Data)
	return c
}

// ExecuteStaged implements device.Prestager: runs the opcode over operands
// already staged by StageInput, releasing the staged set's owned buffers.
// Matrix mode accumulates wide and requantizes the output once; NPU mode
// requantizes at every stage. The result comes back over PCIe into a buffer
// of its own; dst is ignored.
func (d *Device) ExecuteStaged(op vop.Opcode, st *device.Staged, _ *tensor.Matrix, attrs map[string]float64) (*tensor.Matrix, error) {
	var r kernels.Rounder = kernels.Int8{}
	if matrixMode(op) {
		r = kernels.Exact{}
	}
	out, err := kernels.Exec(op, st.Inputs, attrs, r)
	st.Release() // kernels never retain or return their inputs
	if err != nil {
		return nil, err
	}
	if matrixMode(op) {
		requantOutput(op, out) // single output requantization
	}
	return out, nil
}

// requantOutput applies the matrix-mode output requantization. Structured
// transforms use per-channel scales the way the TFLite/Edge-TPU compiler
// assigns per-channel quantization: without this, the DCT's large DC
// coefficients would stretch a tensor-wide scale and crush the AC precision.
func requantOutput(op vop.Opcode, out *tensor.Matrix) {
	switch op {
	case vop.OpDCT8x8:
		// One channel per 8×8 coefficient position.
		for r := 0; r < 8; r++ {
			for c := 0; c < 8; c++ {
				requantChannel(out, r, out.Rows, 8, c, out.Cols, 8)
			}
		}
	case vop.OpFDWT97:
		// One channel per wavelet quadrant (LL/HL/LH/HH).
		h, w := (out.Rows+1)/2, (out.Cols+1)/2
		requantChannel(out, 0, h, 1, 0, w, 1)
		requantChannel(out, 0, h, 1, w, out.Cols, 1)
		requantChannel(out, h, out.Rows, 1, 0, w, 1)
		requantChannel(out, h, out.Rows, 1, w, out.Cols, 1)
	default:
		kernels.Int8{}.Round(out.Data)
	}
}

// requantChannel calibrates an affine INT8 quantization over one channel of
// out — rows r0, r0+rs, … below r1 crossed with columns c0, c0+cs, … below c1
// — and round-trips those elements through it, in place.
func requantChannel(out *tensor.Matrix, r0, r1, rs, c0, c1, cs int) {
	rng := quant.EmptyRange()
	for i := r0; i < r1; i += rs {
		row := out.Row(i)
		for j := c0; j < c1; j += cs {
			rng.Add(row[j])
		}
	}
	p := quant.AffineFromRange(rng.Lo, rng.Hi)
	for i := r0; i < r1; i += rs {
		row := out.Row(i)
		for j := c0; j < c1; j += cs {
			row[j] = p.RoundTripOne(row[j])
		}
	}
}

// checkFits enforces the 8 MB device-memory constraint: an HLOP whose
// buffers exceed it must be split by the runtime before dispatch.
func (d *Device) checkFits(op vop.Opcode, inputs []*tensor.Matrix) error {
	var total int64
	for _, in := range inputs {
		total += in.Bytes(d.ElemBytes())
	}
	// Output plus one double-buffer slot.
	if len(inputs) > 0 {
		total += 2 * inputs[0].Bytes(d.ElemBytes())
	}
	if total > d.cfg.MemoryBytes {
		return fmt.Errorf("tpu: HLOP working set %d B exceeds device memory %d B: %w",
			total, d.cfg.MemoryBytes, device.ErrTooLarge)
	}
	return nil
}

// ExecTime implements device.Device.
func (d *Device) ExecTime(op vop.Opcode, n int) float64 {
	return float64(n) * d.cfg.Slowdown / (device.Throughput(device.TPU, op) * d.cfg.ThroughputScale)
}

// DispatchOverhead implements device.Device: TFLite model invocation.
func (d *Device) DispatchOverhead() float64 { return device.DispatchTPU }

// Link implements device.Device: the M.2 module sits on PCIe.
func (d *Device) Link() interconnect.Link {
	l := interconnect.PCIeTPU
	l.BandwidthBps /= d.cfg.Slowdown
	return l
}

// ElemBytes implements device.Device: INT8 activations.
func (d *Device) ElemBytes() int { return 1 }

// MemoryBytes implements device.Device.
func (d *Device) MemoryBytes() int64 { return d.cfg.MemoryBytes }
