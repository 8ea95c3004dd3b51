// Package sched implements SHMT's scheduling policies (§3.4–3.5) as data:
// a Policy is a criticality source (none, sampled, IRA's canary, the
// oracle's full scan), an assignment rule (one device, even, top-K, device
// limits) and a steal rule (none, any, accuracy-ordered). The paper's
// policies — the single-device baselines, even distribution, the basic
// work-stealing scheduler, the six QAWS variants (two assignment algorithms
// × three sampling mechanisms), IRA-sampling and the oracle — are the rows
// of Table.
//
// A policy does two things: it produces the initial HLOP→queue assignment
// (possibly after reading partition criticality), and it constrains work
// stealing so a less-accurate device never takes over work the policy routed
// to a more-accurate one.
package sched

import (
	"fmt"
	"sort"

	"shmt/internal/device"
	"shmt/internal/hlop"
	"shmt/internal/sampling"
	"shmt/internal/telemetry"
	"shmt/internal/vop"
)

// Context gives policies access to the device registry and the seed of their
// randomized sampling.
type Context struct {
	Reg  *device.Registry
	Seed int64
	// HostScale ≥ 1 multiplies host-side constant sampling costs, matching
	// the virtual-platform slowdown of the devices (see the engine's
	// HostScale). Zero is treated as 1.
	HostScale float64
	// Quarantined, when non-nil, reports whether the device at a queue index
	// is quarantined by the engine's circuit breaker (see internal/core).
	// Eligible filters quarantined devices out so new work routes around
	// them; nil means no device is quarantined.
	Quarantined func(i int) bool
}

// InQuarantine reports queue i's breaker state, tolerating a nil hook.
func (c *Context) InQuarantine(i int) bool {
	return c.Quarantined != nil && c.Quarantined(i)
}

func (c *Context) hostScale() float64 {
	if c.HostScale < 1 {
		return 1
	}
	return c.HostScale
}

// Eligible returns the queue indices a policy distributes kernel work
// across: the accelerators (GPU, TPU). The CPU hosts the runtime — it
// samples, aggregates and orchestrates, as on the prototype platform — and
// only receives kernel HLOPs when it is the sole device.
//
// Quarantined devices are filtered out in tiers: healthy accelerators first,
// then any healthy device (the CPU absorbs kernel work when every
// accelerator is quarantined), and only when everything is quarantined does
// the unfiltered set come back — assignments must land somewhere, and the
// dispatch failure there surfaces the real error.
func (c *Context) Eligible() []int {
	t := c.tier()
	var idx []int
	for i := range c.Reg.Devices() {
		if c.inTier(t, i) {
			idx = append(idx, i)
		}
	}
	return idx
}

// tier is the first of Eligible's tiers that has a member: 0 healthy
// accelerators, 1 healthy devices, 2 accelerators, 3 every device.
func (c *Context) tier() int {
	t := 3
	for i, d := range c.Reg.Devices() {
		switch accel, ok := d.Kind() != device.CPU, !c.InQuarantine(i); {
		case accel && ok:
			return 0
		case ok:
			t = 1
		case accel && t > 2:
			t = 2
		}
	}
	return t
}

// inTier reports whether queue i belongs to tier t.
func (c *Context) inTier(t, i int) bool {
	accel, ok := c.Reg.Get(i).Kind() != device.CPU, !c.InQuarantine(i)
	return t == 3 || (t == 0 && accel && ok) || (t == 1 && ok) || (t == 2 && accel)
}

// EligibleFor returns the eligible queues whose device registered an HLOP
// implementation for op, in ascending accuracy-rank order (most accurate
// first). A device that never advertised the opcode must not be assigned or
// steal its HLOPs (§3.3: drivers provide "its list of available HLOPs").
func (c *Context) EligibleFor(op vop.Opcode) []int {
	var idx []int
	for _, i := range c.Eligible() {
		if c.Reg.Get(i).Supports(op) {
			idx = append(idx, i)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return c.Reg.Get(idx[a]).AccuracyRank() < c.Reg.Get(idx[b]).AccuracyRank()
	})
	if len(idx) == 0 {
		return c.Eligible() // let execution surface the unsupported-op error
	}
	return idx
}

// StealableVictim reports whether queue v may be stolen from. A quarantined
// device's remaining backlog is reserved as its re-admission probe (see the
// engine's circuit breaker): stealing it would leave a recovered device
// quarantined forever with nothing left to probe.
func (c *Context) StealableVictim(v int) bool { return !c.InQuarantine(v) }

// IsEligible reports whether queue i belongs to the kernel-eligible device
// set (see Eligible). Every steal check asks, so it builds no slice.
func (c *Context) IsEligible(i int) bool { return c.inTier(c.tier(), i) }

// Host sampling cost calibration (seconds per touched element). Striding
// walks sequentially; uniform random touches scattered cache lines;
// reduction's multi-dimensional strided lattice is the most cache-hostile —
// the paper finds it the slowest mechanism (§5.2: "reduction performs the
// worst due to the relatively higher sampling overhead").
const (
	TouchCostStriding  = 15e-9
	TouchCostUniform   = 25e-9
	TouchCostReduction = 30e-9
	// PerPartitionCost covers the fixed per-partition scheduling work beyond
	// the raw sampling touches: criticality statistics, the ranking insert,
	// and the queue-assignment round trip through the virtual-device driver
	// interface (a kernel-module call on the prototype). Calibrated so the
	// total quality-control overhead lands near the paper's measured
	// work-stealing -> QAWS-TS gap (2.07x -> 1.95x).
	PerPartitionCost = 50e-6
)

func touchCost(m sampling.Method) float64 {
	switch m {
	case sampling.UniformRandom:
		return TouchCostUniform
	case sampling.Reduction:
		return TouchCostReduction
	default:
		return TouchCostStriding
	}
}

// samplePartitions runs the sampler over every HLOP, fills Criticality, and
// returns the modelled host-side sampling overhead. The sampler inherits
// the context's virtual-platform scale so touch counts (and therefore the
// charged cost) match the full-size run; the partition count itself is
// scale-invariant, so the per-partition bookkeeping cost is not scaled.
func samplePartitions(ctx *Context, s *sampling.Sampler, hs []*hlop.HLOP) float64 {
	s.Scale = ctx.hostScale()
	var overhead float64
	var touches int64
	cost := touchCost(s.Method)
	record := telemetry.On()
	for _, h := range hs {
		reg := h.InputRegion()
		vals := s.SampleRegion(h.Inputs[0], reg)
		h.Criticality = sampling.Criticality(vals)
		overhead += partitionCost(s, cost, reg.Len())
		if record {
			touches += int64(s.CostSamples(reg.Len()))
			telemetry.Criticality.Observe(h.Criticality)
		}
	}
	if record {
		telemetry.SampledPartitions.Add(int64(len(hs)))
		telemetry.SampleTouches.Add(touches)
	}
	return overhead
}

// partitionCost is the charge for sampling one partition of n elements.
func partitionCost(s *sampling.Sampler, touch float64, n int) float64 {
	return float64(s.CostSamples(n))*touch + PerPartitionCost
}

// SamplingCost is the overhead Assign charges a Sampled policy for hs,
// computed from region sizes alone: it reads no tensor value and leaves
// every HLOP as it was. It is 0 for any other source; only Sampled rows are
// adaptive.
func (p Policy) SamplingCost(ctx *Context, hs []*hlop.HLOP) float64 {
	if p.Source != Sampled {
		return 0
	}
	s := sampling.New(p.Method, p.Rate, ctx.Seed)
	s.Scale = ctx.hostScale()
	cost := touchCost(s.Method)
	var overhead float64
	for _, h := range hs {
		overhead += partitionCost(s, cost, h.InputRegion().Len())
	}
	return overhead
}

// validateQueues checks every assignment lands on an existing queue.
func validateQueues(ctx *Context, hs []*hlop.HLOP) error {
	n := ctx.Reg.Len()
	for _, h := range hs {
		if h.AssignedQueue < 0 || h.AssignedQueue >= n {
			return fmt.Errorf("sched: HLOP %d assigned to invalid queue %d", h.ID, h.AssignedQueue)
		}
	}
	return nil
}
