// Package chaos is the runtime's deterministic fault-injection layer: it
// wraps any device.Device with seeded, reproducible failure modes so the
// engine's graceful-degradation machinery (circuit breakers, exponential
// backoff, queue redistribution — see internal/core) can be exercised and
// tested against realistic device behaviour.
//
// Four failure modes compose freely:
//
//   - transient execution errors, injected with a configurable probability
//     (plus a deterministic "outage": the first FailFirstOps dispatches fail);
//   - latency degradation: a constant multiplier on modelled dispatch and
//     execution time, plus probabilistic per-op latency spikes surfaced to the
//     engine as injected virtual delay;
//   - permanent death after DieAfterOps dispatches — every later call fails
//     with ErrDead until the process exits (the breaker quarantines the
//     device and the engine redistributes its queue);
//   - output corruption: a deterministic perturbation of a result stripe, for
//     exercising the quality path without any device erroring.
//
// Determinism: every decision is a pure function of (Seed, fault mode, op
// index). Op indices are assigned per wrapped device at admission
// (Device.Admit), which the engine's pick loop performs one HLOP at a time in
// virtual-time order, so the fault schedule — which dispatch indices fail,
// spike, or corrupt — is identical for a given seed. Errors, death and spikes
// are admission outcomes; corruption is applied by the compute half
// (Device.Compute) from the op index its ticket carries, whenever and on
// whichever pool worker it runs. The whole run is therefore bit-for-bit
// reproducible, at any host pool width.
package chaos

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"shmt/internal/device"
	"shmt/internal/interconnect"
	"shmt/internal/telemetry"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// ErrTransient is the injected recoverable execution error; the engine
// retries/reroutes it like any other device failure.
var ErrTransient = errors.New("chaos: injected transient failure")

// ErrDead is returned by every dispatch after the device died permanently
// (DieAfterOps). Retries cannot succeed; only quarantine and redistribution
// make progress.
var ErrDead = errors.New("chaos: device is dead")

// Config is one device's fault plan. The zero value injects nothing.
type Config struct {
	// Seed drives every injection decision; the same seed reproduces the
	// same fault schedule (as a function of dispatch index).
	Seed int64
	// TransientRate is the per-dispatch probability of a transient error.
	TransientRate float64
	// FailFirstOps fails the first N dispatches deterministically — a
	// bounded outage the breaker should absorb and recover from.
	FailFirstOps int
	// DieAfterOps kills the device permanently after N dispatches (0 =
	// never): dispatch N and every later one return ErrDead.
	DieAfterOps int
	// LatencyMultiplier ≥ 1 scales the device's modelled dispatch and
	// execution time (a persistently degraded device). 0 or 1 = off.
	LatencyMultiplier float64
	// SpikeRate is the per-dispatch probability of a latency spike.
	SpikeRate float64
	// SpikeMultiplier sizes a spike: the op's modelled latency is multiplied
	// by this factor (default 10 when a spike fires with no multiplier set).
	SpikeMultiplier float64
	// CorruptRate is the per-dispatch probability of output corruption.
	CorruptRate float64
	// CorruptMagnitude is the relative perturbation applied to a corrupted
	// result stripe (default 0.05).
	CorruptMagnitude float64
}

// enabled reports whether the config injects anything at all.
func (c Config) enabled() bool {
	return c.TransientRate > 0 || c.FailFirstOps > 0 || c.DieAfterOps > 0 ||
		c.LatencyMultiplier > 1 || c.SpikeRate > 0 || c.CorruptRate > 0
}

// Device wraps an inner device.Device with the fault plan. It satisfies
// device.Device; the engine sees a normal device whose name, supported ops
// and accuracy class are unchanged.
type Device struct {
	inner device.Device
	cfg   Config

	ops  atomic.Int64 // dispatch index counter
	dead atomic.Bool

	mu      sync.Mutex
	pending float64 // injected virtual delay awaiting collection
}

// Wrap returns dev wrapped with the fault plan cfg. A config that injects
// nothing returns dev unchanged.
func Wrap(dev device.Device, cfg Config) device.Device {
	if !cfg.enabled() {
		return dev
	}
	if cfg.SpikeRate > 0 && cfg.SpikeMultiplier <= 1 {
		cfg.SpikeMultiplier = 10
	}
	if cfg.CorruptRate > 0 && cfg.CorruptMagnitude <= 0 {
		cfg.CorruptMagnitude = 0.05
	}
	return &Device{inner: dev, cfg: cfg}
}

// Delegated identity and cost model.

func (c *Device) Name() string                { return c.inner.Name() }
func (c *Device) Kind() device.Kind           { return c.inner.Kind() }
func (c *Device) AccuracyRank() int           { return c.inner.AccuracyRank() }
func (c *Device) Supports(op vop.Opcode) bool { return c.inner.Supports(op) }
func (c *Device) Link() interconnect.Link     { return c.inner.Link() }
func (c *Device) ElemBytes() int              { return c.inner.ElemBytes() }
func (c *Device) MemoryBytes() int64          { return c.inner.MemoryBytes() }

// ExecTime applies the constant latency degradation to the cost model. The
// scaled value stays a pure function of (op, n).
func (c *Device) ExecTime(op vop.Opcode, n int) float64 {
	t := c.inner.ExecTime(op, n)
	if c.cfg.LatencyMultiplier > 1 {
		t *= c.cfg.LatencyMultiplier
	}
	return t
}

// DispatchOverhead applies the constant latency degradation to the fixed
// per-HLOP invocation cost.
func (c *Device) DispatchOverhead() float64 {
	t := c.inner.DispatchOverhead()
	if c.cfg.LatencyMultiplier > 1 {
		t *= c.cfg.LatencyMultiplier
	}
	return t
}

// ExecuteInto is admission followed by compute, so fault decisions see every
// dispatch whichever way it arrives.
func (c *Device) ExecuteInto(op vop.Opcode, inputs []*tensor.Matrix, dst *tensor.Matrix, attrs map[string]float64) (*tensor.Matrix, error) {
	return device.Dispatch(c, op, inputs, dst, attrs)
}

// Admit takes the next op index and draws every decision the engine acts on
// from the seeded schedule, in this order: death, deterministic outage,
// transient error, latency spike, then the inner device's own admission. The
// ticket carries the op index to Compute, which draws corruption from it.
// Wrap is applied to leaf devices, whose own tickets carry nothing.
func (c *Device) Admit(op vop.Opcode, inputs []*tensor.Matrix) (device.Ticket, error) {
	k := c.ops.Add(1) - 1
	if c.cfg.DieAfterOps > 0 && k >= int64(c.cfg.DieAfterOps) {
		c.dead.Store(true)
		telemetry.ChaosInjected.With("dead").Inc()
		return device.Ticket{}, fmt.Errorf("%s op %d: %w", c.Name(), k, ErrDead)
	}
	if k < int64(c.cfg.FailFirstOps) ||
		(c.cfg.TransientRate > 0 && roll(c.cfg.Seed, streamTransient, k) < c.cfg.TransientRate) {
		telemetry.ChaosInjected.With("transient").Inc()
		return device.Ticket{}, fmt.Errorf("%s op %d: %w", c.Name(), k, ErrTransient)
	}
	if c.cfg.SpikeRate > 0 && roll(c.cfg.Seed, streamSpike, k) < c.cfg.SpikeRate {
		n := 0
		if len(inputs) > 0 {
			n = inputs[0].Rows * inputs[0].Cols
		}
		extra := (c.cfg.SpikeMultiplier - 1) * (c.inner.ExecTime(op, n) + c.inner.DispatchOverhead())
		c.mu.Lock()
		c.pending += extra
		c.mu.Unlock()
		telemetry.ChaosInjected.With("spike").Inc()
	}
	_, err := c.inner.Admit(op, inputs)
	return device.Ticket{Seq: k}, err
}

// Compute delegates the arithmetic and then applies the output corruption
// drawn for op index t.Seq — a function of the seed and that index alone, so
// it does not matter when, or on which goroutine, the dispatch is computed.
func (c *Device) Compute(t device.Ticket, op vop.Opcode, inputs []*tensor.Matrix, dst *tensor.Matrix, attrs map[string]float64) (*tensor.Matrix, error) {
	res, err := c.inner.Compute(device.Ticket{}, op, inputs, dst, attrs)
	if err != nil {
		return res, err
	}
	k := t.Seq
	if c.cfg.CorruptRate > 0 && roll(c.cfg.Seed, streamCorrupt, k) < c.cfg.CorruptRate {
		corrupt(res, c.cfg.Seed, k, c.cfg.CorruptMagnitude)
		telemetry.ChaosInjected.With("corrupt").Inc()
	}
	return res, nil
}

// TakeInjectedDelay drains the accumulated spike delay in virtual seconds.
// The engine calls it (through an interface assertion, so core never imports
// chaos) after each admitted dispatch and charges the delay to the device's
// clock.
func (c *Device) TakeInjectedDelay() float64 {
	c.mu.Lock()
	d := c.pending
	c.pending = 0
	c.mu.Unlock()
	return d
}

// corrupt perturbs a deterministic stripe of the result: a contiguous run of
// rows starting at a seeded offset is scaled by (1 + magnitude). It writes
// through the matrix's stride, so views into a shared output tensor are
// corrupted only within their own region.
func corrupt(m *tensor.Matrix, seed int64, k int64, magnitude float64) {
	if m == nil || m.Rows == 0 || m.Cols == 0 {
		return
	}
	rows := m.Rows/8 + 1
	start := int(roll(seed, streamCorruptAt, k) * float64(m.Rows))
	if start+rows > m.Rows {
		start = m.Rows - rows
	}
	stride := m.RowStride()
	for r := start; r < start+rows; r++ {
		row := m.Data[r*stride : r*stride+m.Cols]
		for i := range row {
			row[i] *= 1 + magnitude
		}
	}
}

// Decision streams keep the fault modes' schedules independent: transient
// errors, spikes and corruption each draw from their own sequence.
const (
	streamTransient uint64 = 0xA076_1D64_78BD_642F
	streamSpike     uint64 = 0xE703_7ED1_A0B4_28DB
	streamCorrupt   uint64 = 0x8EBC_6AF0_9C88_C6E3
	streamCorruptAt uint64 = 0x5899_65CC_7537_4CC3
)

// roll returns a uniform [0,1) draw that is a pure function of (seed,
// stream, op index) — splitmix64 finalization over the mixed key.
func roll(seed int64, stream uint64, k int64) float64 {
	x := uint64(seed)*0x9E37_79B9_7F4A_7C15 ^ stream ^ uint64(k)*0xBF58_476D_1CE4_E5B9
	x ^= x >> 30
	x *= 0xBF58_476D_1CE4_E5B9
	x ^= x >> 27
	x *= 0x94D0_49BB_1331_11EB
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}
