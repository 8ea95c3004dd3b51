// Package device defines the processing-resource abstraction of the SHMT
// runtime: every computing resource (CPU, GPU, Edge TPU) registers the HLOP
// implementations it supports, a cost model, its accuracy class, and an
// incoming/completion queue pair — exactly the contract of §3.3: "Upon the
// initialization of the SHMT system, each hardware resource's driver is
// responsible for providing SHMT with its list of available HLOPs operations
// and their implementations."
package device

import (
	"errors"
	"fmt"

	"shmt/internal/interconnect"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// Kind classifies a processing resource.
type Kind int

const (
	// CPU is the host processor (exact, slow, orchestrates).
	CPU Kind = iota
	// GPU is the vector-processing accelerator (FP32).
	GPU
	// TPU is the matrix/NPU accelerator (INT8).
	TPU
	// DSP is the signal/image accelerator (24-bit fixed point), the
	// extension device of §2.1.
	DSP
)

func (k Kind) String() string {
	switch k {
	case CPU:
		return "cpu"
	case GPU:
		return "gpu"
	case TPU:
		return "tpu"
	case DSP:
		return "dsp"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Device is one processing resource the SHMT runtime can schedule HLOPs on.
// Implementations must be safe for concurrent ExecuteInto calls (the concurrent
// engine runs one worker goroutine per device, and stealing can move work
// between workers).
type Device interface {
	// Name uniquely identifies the device instance ("gpu", "tpu", "cpu").
	Name() string
	// Kind returns the device class.
	Kind() Kind
	// AccuracyRank orders devices by result accuracy: 0 is most accurate.
	// QAWS's stealing constraint ("only allows a device with higher accuracy
	// to steal HLOPs from another device with the same or a lower accuracy")
	// compares these ranks.
	AccuracyRank() int
	// Supports reports whether the device registered an HLOP implementation
	// for the opcode.
	Supports(op vop.Opcode) bool
	// ExecuteInto runs the opcode over the inputs at the device's native
	// precision and returns the result (restored to float64, as the paper's
	// runtime restores results to the application's precision). Inputs may
	// be strided views, and dst may be nil. When dst is non-nil, devices
	// that execute out of shared host memory write the result through dst —
	// typically a strided view into the VOP's output tensor — and return
	// dst, so the result needs no copy into the output. Devices with private
	// memory or quantized output staging (the TPU) may ignore dst and return
	// a fresh buffer; the caller detects that by result != dst and falls
	// back to the copy path.
	//
	// ExecuteInto is Admit followed by Compute (see Dispatch); callers that
	// need the decision apart from the arithmetic call the halves themselves.
	ExecuteInto(op vop.Opcode, inputs []*tensor.Matrix, dst *tensor.Matrix, attrs map[string]float64) (*tensor.Matrix, error)
	// Admit is the admission half of a dispatch: it accepts or refuses the
	// HLOP from the opcode, the operand shapes and the device's own state,
	// never from tensor values. Everything a retry, a split or a reroute can
	// cure is refused here — a working set that overflows private memory
	// (ErrTooLarge), an injected fault, a dead device — so a scheduler knows
	// a dispatch's fate, and can account it, before any arithmetic runs.
	Admit(op vop.Opcode, inputs []*tensor.Matrix) (Ticket, error)
	// Compute is the compute half: the arithmetic of a dispatch Admit
	// accepted, under the ticket Admit returned. Its result is its only
	// output, so admitted dispatches may be computed in any order, on any
	// goroutine. An error here is a defect of the HLOP (a kernel shape
	// error), not of the device: dispatching it again cannot help.
	Compute(t Ticket, op vop.Opcode, inputs []*tensor.Matrix, dst *tensor.Matrix, attrs map[string]float64) (*tensor.Matrix, error)
	// ExecTime returns the modelled execution latency for n elements of the
	// opcode, excluding dispatch and transfers.
	ExecTime(op vop.Opcode, n int) float64
	// DispatchOverhead is the fixed per-HLOP invocation cost (kernel launch,
	// model invocation).
	DispatchOverhead() float64
	// Link is the path data takes between host memory and the device.
	Link() interconnect.Link
	// ElemBytes is the native element width used to size transfers.
	ElemBytes() int
	// MemoryBytes is the private device memory capacity; 0 means the device
	// works out of shared host memory.
	MemoryBytes() int64
}

// Ticket is what a device's admission half hands its compute half. Devices
// that keep no per-dispatch state return the zero Ticket.
type Ticket struct {
	// Seq is the dispatch's index on the device that admitted it. The chaos
	// wrapper keys output corruption on it, so a dispatch computed later, or
	// on another goroutine, is still corrupted exactly as it was drawn.
	Seq int64
}

// Dispatch is ExecuteInto for any device: admission, then compute.
func Dispatch(d Device, op vop.Opcode, inputs []*tensor.Matrix, dst *tensor.Matrix, attrs map[string]float64) (*tensor.Matrix, error) {
	t, err := d.Admit(op, inputs)
	if err != nil {
		return nil, err
	}
	return d.Compute(t, op, inputs, dst, attrs)
}

// Registry holds the devices available to a session, ordered by queue index
// (the paper's example: "the GPU queue has an index value of 0, and the Edge
// TPU queue has an index value of 1").
type Registry struct {
	devices []Device
	byName  map[string]int
}

// NewRegistry builds a registry; device names must be unique.
func NewRegistry(devices ...Device) (*Registry, error) {
	r := &Registry{byName: make(map[string]int, len(devices))}
	for _, d := range devices {
		if d == nil {
			return nil, fmt.Errorf("device: nil device")
		}
		if _, dup := r.byName[d.Name()]; dup {
			return nil, fmt.Errorf("device: duplicate device name %q", d.Name())
		}
		r.byName[d.Name()] = len(r.devices)
		r.devices = append(r.devices, d)
	}
	if len(r.devices) == 0 {
		return nil, fmt.Errorf("device: registry needs at least one device")
	}
	return r, nil
}

// Devices returns the devices in queue-index order.
func (r *Registry) Devices() []Device { return r.devices }

// Len returns the number of devices.
func (r *Registry) Len() int { return len(r.devices) }

// Index returns the queue index of the named device, or -1.
func (r *Registry) Index(name string) int {
	if i, ok := r.byName[name]; ok {
		return i
	}
	return -1
}

// Get returns the device at queue index i.
func (r *Registry) Get(i int) Device { return r.devices[i] }

// ErrTooLarge is returned by a device when an HLOP's working set exceeds its
// private memory; the runtime responds by splitting the HLOP (§3.4: "the
// runtime system may need to further fuse or partition HLOPs").
var ErrTooLarge = errors.New("device: HLOP exceeds device memory")
