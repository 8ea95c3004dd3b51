// Package gpu implements the simulated 128-core Maxwell-class GPU of the
// prototype platform (§4.1): a vector-processing device that executes every
// HLOP in real single-precision (FP32) arithmetic, with a throughput model
// calibrated to the paper's Fig. 2 measurements.
//
// The GPU is the paper's performance and accuracy baseline: all speedups
// (Fig. 6, 9, 12), energy (Fig. 10) and footprints (Fig. 11) are reported
// relative to it, and MAPE/SSIM compare against outputs of this precision
// class.
package gpu

import (
	"shmt/internal/device"
	"shmt/internal/interconnect"
	"shmt/internal/kernels"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// Config tunes the simulated GPU.
type Config struct {
	// ThroughputScale multiplies all modelled throughputs (default 1);
	// useful for what-if ablations (e.g. the data-center GPU:TPU ratio).
	ThroughputScale float64
	// Slowdown ≥ 1 scales the virtual platform down (throughput and link
	// bandwidth divide by it) so reduced-size experiments reproduce the
	// full-size timeline. Default 1.
	Slowdown float64
}

// Device is the simulated GPU. The embedded HostCast is its two compute
// halves — cast one operand to FP32, execute over cast operands —
// which is what lets the engine keep a shared operand cast once per round.
type Device struct {
	name string
	cfg  Config
	device.HostCast
}

// New returns a GPU device named "gpu".
func New(cfg Config) *Device {
	if cfg.ThroughputScale <= 0 {
		cfg.ThroughputScale = 1
	}
	if cfg.Slowdown < 1 {
		cfg.Slowdown = 1
	}
	return &Device{name: "gpu", cfg: cfg, HostCast: device.HostCast{Rounder: kernels.F32{}}}
}

var (
	_ device.Device    = (*Device)(nil)
	_ device.Prestager = (*Device)(nil)
)

// Name implements device.Device.
func (d *Device) Name() string { return d.name }

// Kind implements device.Device.
func (d *Device) Kind() device.Kind { return device.GPU }

// AccuracyRank implements device.Device: FP32 ranks just below the exact
// CPU.
func (d *Device) AccuracyRank() int { return 1 }

// Supports implements device.Device: the GPU has a CUDA implementation of
// every VOP in the table (the paper's baselines are all GPU kernels).
func (d *Device) Supports(op vop.Opcode) bool { return op.Known() }

// ExecuteInto implements device.Device: the kernel runs with FP32 rounding
// at every stage boundary, and inputs are cast to the native precision at the
// host boundary first — the runtime's data-type casting of §3.3.2.
func (d *Device) ExecuteInto(op vop.Opcode, inputs []*tensor.Matrix, dst *tensor.Matrix, attrs map[string]float64) (*tensor.Matrix, error) {
	return device.Dispatch(d, op, inputs, dst, attrs)
}

// Admit implements device.Device: the GPU refuses nothing.
func (d *Device) Admit(vop.Opcode, []*tensor.Matrix) (device.Ticket, error) {
	return device.Ticket{}, nil
}

// Compute implements device.Device: cast each input, then execute over the
// cast operands. The integrated GPU shares host memory, so when dst is given
// the FP32 result lands directly in it (the precision cast of the inputs
// is a modelled device behaviour and is kept — stride-aware — even for
// views).
func (d *Device) Compute(_ device.Ticket, op vop.Opcode, inputs []*tensor.Matrix, dst *tensor.Matrix, attrs map[string]float64) (*tensor.Matrix, error) {
	return device.ComputeStaged(d, op, inputs, dst, attrs)
}

// ExecTime implements device.Device.
func (d *Device) ExecTime(op vop.Opcode, n int) float64 {
	return float64(n) / (device.Throughput(device.GPU, op) * d.cfg.ThroughputScale / d.cfg.Slowdown)
}

// DispatchOverhead implements device.Device: kernel-launch latency.
func (d *Device) DispatchOverhead() float64 { return device.DispatchGPU }

// Link implements device.Device: the integrated GPU shares host LPDDR4.
func (d *Device) Link() interconnect.Link {
	l := interconnect.HostDRAM
	l.BandwidthBps /= d.cfg.Slowdown
	return l
}

// ElemBytes implements device.Device.
func (d *Device) ElemBytes() int { return 4 }

// MemoryBytes implements device.Device: the integrated GPU has no private
// memory; it shares the 4 GB LPDDR4.
func (d *Device) MemoryBytes() int64 { return 0 }
