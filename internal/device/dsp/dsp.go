// Package dsp implements an image/signal DSP device — the extension the
// paper sketches in §2.1: "as many DSP applications have strong connections
// with AI/ML applications and rely on similar mathematical functions, SHMT
// can easily extend the support to DSPs."
//
// The device models a 24-bit fixed-point image DSP (the paper cites Analog
// Devices and NXP parts computing in 24-bit, and Google Visual Core's
// 16-bit IPU). It registers HLOPs only for its home domain — stencils,
// filters, transforms, and the other signal-flavoured VOPs — and declines
// everything else, which exercises the runtime's per-device HLOP-coverage
// path (§3.3: each driver provides "its list of available HLOPs").
// Accuracy-wise it slots between the FP32 GPU and the INT8 Edge TPU.
package dsp

import (
	"shmt/internal/device"
	"shmt/internal/interconnect"
	"shmt/internal/quant"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// Config tunes the simulated DSP.
type Config struct {
	// Slowdown ≥ 1 scales the virtual platform down. Default 1.
	Slowdown float64
}

// Device is the simulated 24-bit image DSP. The embedded HostCast is its two
// compute halves: cast one operand to Fixed24, execute over cast operands.
type Device struct {
	name string
	cfg  Config
	device.HostCast
}

// New returns a DSP device named "dsp".
func New(cfg Config) *Device {
	if cfg.Slowdown < 1 {
		cfg.Slowdown = 1
	}
	return &Device{name: "dsp", cfg: cfg, HostCast: device.HostCast{Rounder: Fixed24{}}}
}

var (
	_ device.Device    = (*Device)(nil)
	_ device.Prestager = (*Device)(nil)
)

// Name implements device.Device.
func (d *Device) Name() string { return d.name }

// Kind implements device.Device.
func (d *Device) Kind() device.Kind { return device.DSP }

// AccuracyRank implements device.Device: 24-bit fixed point sits between
// FP32 (rank 1) and INT8 (rank 3).
func (d *Device) AccuracyRank() int { return 2 }

// homeDomain lists the signal/image VOPs the DSP implements in hardware.
var homeDomain = map[vop.Opcode]bool{
	vop.OpConv:       true,
	vop.OpFFT:        true,
	vop.OpDCT8x8:     true,
	vop.OpFDWT97:     true,
	vop.OpLaplacian:  true,
	vop.OpMeanFilter: true,
	vop.OpSobel:      true,
	vop.OpSRAD:       true,
	vop.OpStencil:    true,
	vop.OpAdd:        true,
	vop.OpSub:        true,
	vop.OpMultiply:   true,
}

// Supports implements device.Device: home-domain VOPs only.
func (d *Device) Supports(op vop.Opcode) bool { return homeDomain[op] }

// Fixed24 rounds every value onto the 24-bit fixed-point grid, recalibrated
// per stage — the DSP's kernels.Rounder.
type Fixed24 struct{}

// Round implements kernels.Rounder: a calibration scan, then the
// per-element round trip.
func (Fixed24) Round(data []float64) {
	p := quant.CalibrateFixed24(data)
	for i, v := range data {
		data[i] = p.DequantizeOne(p.QuantizeOne(v))
	}
}

// Name implements kernels.Rounder.
func (Fixed24) Name() string { return "fixed24" }

// ExecuteInto implements device.Device: 24-bit fixed-point execution.
func (d *Device) ExecuteInto(op vop.Opcode, inputs []*tensor.Matrix, dst *tensor.Matrix, attrs map[string]float64) (*tensor.Matrix, error) {
	return device.Dispatch(d, op, inputs, dst, attrs)
}

// Admit implements device.Device: the DSP refuses nothing.
func (d *Device) Admit(vop.Opcode, []*tensor.Matrix) (device.Ticket, error) {
	return device.Ticket{}, nil
}

// Compute implements device.Device: cast each input, then execute over the
// cast operands. The on-SoC DSP shares host memory, so when dst is given the
// fixed-point result is written through it. Note Fixed24 calibrates per
// stage, so kernels.RoundMatrix does not round it row by row: it gathers
// strided destinations before the final requant to keep calibration
// identical to the copy path.
func (d *Device) Compute(_ device.Ticket, op vop.Opcode, inputs []*tensor.Matrix, dst *tensor.Matrix, attrs map[string]float64) (*tensor.Matrix, error) {
	return device.ComputeStaged(d, op, inputs, dst, attrs)
}

// dspRatio scales the GPU throughput: dedicated filter pipelines make the
// DSP strong on its home stencils, weaker elsewhere in the domain.
func dspRatio(op vop.Opcode) float64 {
	switch op {
	case vop.OpConv, vop.OpLaplacian, vop.OpMeanFilter, vop.OpSobel:
		return 1.4 // hardwired filter pipelines
	case vop.OpFFT, vop.OpDCT8x8, vop.OpFDWT97:
		return 1.1 // native transform units
	case vop.OpSRAD, vop.OpStencil:
		return 0.8
	default:
		return 0.6
	}
}

// ExecTime implements device.Device.
func (d *Device) ExecTime(op vop.Opcode, n int) float64 {
	return float64(n) * d.cfg.Slowdown / (device.Throughput(device.GPU, op) * dspRatio(op))
}

// DispatchOverhead implements device.Device: command-list submission.
func (d *Device) DispatchOverhead() float64 { return 60e-6 }

// Link implements device.Device: an on-SoC DSP shares host memory.
func (d *Device) Link() interconnect.Link {
	l := interconnect.HostDRAM
	l.BandwidthBps /= d.cfg.Slowdown
	return l
}

// ElemBytes implements device.Device: 24-bit samples occupy 4-byte lanes in
// host memory (packed 3-byte formats exist but DMA engines pad).
func (d *Device) ElemBytes() int { return 4 }

// MemoryBytes implements device.Device: shared host memory.
func (d *Device) MemoryBytes() int64 { return 0 }
