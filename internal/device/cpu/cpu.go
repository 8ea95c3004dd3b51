// Package cpu implements the host-processor device: a quad-core ARM
// A57-class resource that executes every HLOP exactly in float64. It is the
// accuracy reference and the slowest executor, mirroring the prototype's
// Cortex-A57 (§4.1).
package cpu

import (
	"shmt/internal/device"
	"shmt/internal/interconnect"
	"shmt/internal/kernels"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// Device is the simulated CPU.
type Device struct {
	name     string
	slowdown float64
}

// New returns a CPU device named "cpu". slowdown ≥ 1 scales the virtual
// platform down so that reduced-size experiments reproduce the full-size
// timeline (throughput and link bandwidth divide by it); pass 1 for the
// real platform.
func New(slowdown float64) *Device {
	if slowdown < 1 {
		slowdown = 1
	}
	return &Device{name: "cpu", slowdown: slowdown}
}

var _ device.Device = (*Device)(nil)

// Name implements device.Device.
func (d *Device) Name() string { return d.name }

// Kind implements device.Device.
func (d *Device) Kind() device.Kind { return device.CPU }

// AccuracyRank implements device.Device: the CPU is exact (rank 0).
func (d *Device) AccuracyRank() int { return 0 }

// Supports implements device.Device: the CPU supports every VOP.
func (d *Device) Supports(op vop.Opcode) bool { return op.Known() }

// ExecuteInto implements device.Device: exact float64 execution.
func (d *Device) ExecuteInto(op vop.Opcode, inputs []*tensor.Matrix, dst *tensor.Matrix, attrs map[string]float64) (*tensor.Matrix, error) {
	return device.Dispatch(d, op, inputs, dst, attrs)
}

// Admit implements device.Device: the CPU refuses nothing.
func (d *Device) Admit(vop.Opcode, []*tensor.Matrix) (device.Ticket, error) {
	return device.Ticket{}, nil
}

// Compute implements device.Device. The CPU works directly out of shared
// host memory: strided input views are read in place and, when dst is given,
// the result is written through it — no staging copies on either side.
func (d *Device) Compute(_ device.Ticket, op vop.Opcode, inputs []*tensor.Matrix, dst *tensor.Matrix, attrs map[string]float64) (*tensor.Matrix, error) {
	return kernels.ExecInto(op, inputs, dst, attrs, kernels.Exact{})
}

// ExecTime implements device.Device.
func (d *Device) ExecTime(op vop.Opcode, n int) float64 {
	return float64(n) * d.slowdown / device.Throughput(device.CPU, op)
}

// DispatchOverhead implements device.Device.
func (d *Device) DispatchOverhead() float64 { return device.DispatchCPU }

// Link implements device.Device: the CPU reads host DRAM directly.
func (d *Device) Link() interconnect.Link {
	l := interconnect.HostDRAM
	l.BandwidthBps /= d.slowdown
	return l
}

// ElemBytes implements device.Device: float64.
func (d *Device) ElemBytes() int { return 8 }

// MemoryBytes implements device.Device: shared host memory.
func (d *Device) MemoryBytes() int64 { return 0 }
