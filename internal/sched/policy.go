package sched

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"shmt/internal/device"
	"shmt/internal/hlop"
	"shmt/internal/sampling"
)

// Source is where a policy's partition criticality comes from.
type Source int

const (
	// NoCriticality reads no input values: the baselines place work by
	// device or position alone.
	NoCriticality Source = iota
	// Sampled runs QAWS's sampler (Algorithms 3–5) with Policy.Method at
	// Policy.Rate and charges the modelled host touches.
	Sampled
	// Canary is IRA's input evaluation (Laurenzano et al., PLDI'16): the
	// kernel itself runs on the host over a strided canary subset of every
	// partition before anything dispatches, which is why IRA is slower than
	// the GPU baseline ("a 45% slowdown", §5.2).
	Canary
	// FullScan reads every element for free: the paper's oracle, which
	// places partitions "without considering the performance" (§5.3).
	FullScan
)

// Assignment is the rule that maps partitions to queues.
type Assignment int

const (
	// OneDevice routes every HLOP to Policy.Device: the conventional
	// execution model (GPU baseline, Edge-TPU-only).
	OneDevice Assignment = iota
	// Even round-robins HLOPs over the eligible queues.
	Even
	// TopK is Algorithm 2 in its multi-tier form: within each window the
	// top K% by criticality go to the most accurate device, "second-L% to
	// the second-most accurate device, and so on" (§3.5), and the least
	// accurate device takes the rest.
	TopK
	// DeviceLimits is Algorithm 1: a partition whose criticality stays
	// below the least accurate device's limit goes there, every other one
	// to the most accurate device.
	DeviceLimits
)

// Steal is the rule for which idle device may take over a queued HLOP.
type Steal int

const (
	// NoSteal fixes the initial mapping.
	NoSteal Steal = iota
	// StealAny lets any eligible device that supports the opcode steal:
	// §3.4's basic scheduler, where faster hardware performs more HLOPs.
	StealAny
	// StealAccuracyOrdered adds QAWS's constraint: "a device with higher
	// accuracy [may] steal HLOPs from another device with the same or a
	// lower accuracy" (§3.5), so the GPU drains the TPU's backlog but never
	// the reverse.
	StealAccuracyOrdered
)

// Policy is one scheduling policy, built from three parts: a criticality
// source, an assignment rule and a steal rule. The paper's policies are rows
// of Table; the engine reads the parts directly.
type Policy struct {
	// Name labels reports and plan-cache keys (the paper's legend:
	// "work-stealing", "QAWS-TS", ...).
	Name   string
	Source Source
	// Method and Rate configure the Sampled source; Rate ≤ 0 samples at
	// 2^-15, the knee of Fig. 9.
	Method     sampling.Method
	Rate       float64
	Assignment Assignment
	// Device names OneDevice's target ("gpu", "tpu", "cpu").
	Device string
	// K is TopK's critical fraction; ≤ 0 is 0.25, the value all ten Table 2
	// applications run (§3.5 calls K application-dependent).
	K float64
	// Window is TopK's ranking window in partitions; 0 ranks the whole VOP.
	Window int
	// TPULimit is DeviceLimits' ceiling for the least accurate device, as a
	// multiple of the VOP's median partition criticality; ≤ 0 is 1.5 (the
	// INT8 device only takes partitions whose value spread stays within
	// 1.5x the typical spread — a more conservative gate than top-K ranking,
	// which is why the paper finds the L variants slower but comparably
	// accurate).
	TPULimit float64
	Steal    Steal
	// Adaptive makes the engine price, once per plan-cache key, a lone VOP
	// run whole on its most accurate eligible device against this policy's
	// own partitioned plan, and take the cheaper (core's pricing). Assign
	// itself is unchanged: it is the partitioned branch, and a batch of
	// several VOPs runs it (Partitioned). Only a TopK row with a Sampled
	// source sets it.
	Adaptive bool
}

// IRACanaryRate is the fraction of each partition the Canary source
// computes. Calibrated so the IRA-sampling baseline lands near the paper's
// measured slowdown.
const IRACanaryRate = 1.0 / 24

// Row is one entry of Table: the name a Config selects, its policy, and
// whether the engine double-buffers transfers under it (the SHMT policies
// and software pipelining do; the conventional baselines do not).
type Row struct {
	Key          string
	Policy       Policy
	DoubleBuffer bool
}

// Table lists every policy, in the order Fig. 6 reports them. Rate, K and
// TPULimit stay at their defaults; Row.Tuned sets the rate.
var Table = []Row{
	{"gpu-baseline", Policy{Name: "gpu-only", Device: "gpu"}, false},
	{"tpu-only", Policy{Name: "tpu-only", Device: "tpu"}, true},
	{"cpu-only", Policy{Name: "cpu-only", Device: "cpu"}, false},
	{"IRA-sampling", Policy{Name: "IRA-sampling", Source: Canary, Assignment: TopK, Steal: StealAccuracyOrdered}, true},
	{"sw-pipelining", Policy{Name: "gpu-only", Device: "gpu"}, true},
	{"even-distribution", Policy{Name: "even-distribution", Assignment: Even}, false},
	{"work-stealing", Policy{Name: "work-stealing", Assignment: Even, Steal: StealAny}, true},
	qaws("QAWS-TS", TopK, sampling.Striding),
	qaws("QAWS-TU", TopK, sampling.UniformRandom),
	qaws("QAWS-TR", TopK, sampling.Reduction),
	qaws("QAWS-LS", DeviceLimits, sampling.Striding),
	qaws("QAWS-LU", DeviceLimits, sampling.UniformRandom),
	qaws("QAWS-LR", DeviceLimits, sampling.Reduction),
	{"oracle", Policy{Name: "oracle", Source: FullScan, Assignment: TopK}, true},
	adaptive(qaws("QAWS-TS", TopK, sampling.Striding)),
}

// adaptive is r co-executing only where it pays: the row "<key>/adaptive".
func adaptive(r Row) Row {
	r.Key += adaptiveSuffix
	r.Policy.Name, r.Policy.Adaptive = r.Key, true
	return r
}

const adaptiveSuffix = "/adaptive"

// Partitioned is p without the pricing: an adaptive row's partitioned
// branch, named after the row it was made from. Any other policy is
// returned as it is.
func (p Policy) Partitioned() Policy {
	if p.Adaptive {
		p.Name, p.Adaptive = strings.TrimSuffix(p.Name, adaptiveSuffix), false
	}
	return p
}

// qaws is one of the six QAWS rows: assignment × sampling mechanism. Top-K
// ranks windows of 16 partitions.
func qaws(name string, a Assignment, m sampling.Method) Row {
	p := Policy{Name: name, Source: Sampled, Method: m, Assignment: a, Steal: StealAccuracyOrdered}
	if a == TopK {
		p.Window = 16
	}
	return Row{name, p, true}
}

// Lookup returns the row named key.
func Lookup(key string) (Row, bool) {
	for _, r := range Table {
		if r.Key == key {
			return r, true
		}
	}
	return Row{}, false
}

// Tuned returns the row's policy sampling at rate (≤ 0 keeps the default).
func (r Row) Tuned(rate float64) Policy {
	p := r.Policy
	p.Rate = rate
	return p
}

var (
	sourceNames     = [...]string{"none", "sampled", "canary", "full-scan"}
	assignmentNames = [...]string{"one-device", "even", "top-K", "device-limits"}
	stealNames      = [...]string{"none", "any", "accuracy-ordered"}
)

// Parts names the policy's three parts, with the sampler, device or window
// they are built from.
func (p Policy) Parts() (source, assignment, steal string) {
	source, assignment = sourceNames[p.Source], assignmentNames[p.Assignment]
	if p.Source == Sampled {
		source += "(" + p.Method.String() + ")"
	}
	switch {
	case p.Assignment == OneDevice:
		assignment += "(" + p.Device + ")"
	case p.Assignment == TopK && p.Window > 0:
		assignment += "(window " + strconv.Itoa(p.Window) + ")"
	case p.Assignment == TopK:
		assignment += "(whole VOP)"
	}
	if p.Adaptive {
		assignment = "priced: " + assignment + " vs one-device(most accurate)"
	}
	return source, assignment, stealNames[p.Steal]
}

// Assign fills every HLOP's Criticality from the source, then sets
// AssignedQueue (and, under TopK and DeviceLimits, Critical), and returns
// the scheduling overhead in seconds to charge before dispatch.
func (p Policy) Assign(ctx *Context, hs []*hlop.HLOP) (float64, error) {
	if len(hs) == 0 {
		return 0, nil
	}
	overhead := p.criticality(ctx, hs)
	if p.Assignment == OneDevice {
		q := ctx.Reg.Index(p.Device)
		if q < 0 {
			return 0, fmt.Errorf("sched: no device named %q", p.Device)
		}
		for _, h := range hs {
			h.AssignedQueue = q
		}
		return overhead, nil
	}
	ordered := ctx.EligibleFor(hs[0].Op) // most accurate first
	switch p.Assignment {
	case Even:
		for i, h := range hs {
			h.AssignedQueue = ordered[i%len(ordered)]
		}
	case TopK:
		p.assignTopK(ordered, hs)
	case DeviceLimits:
		p.assignLimits(ordered, hs)
	default:
		return 0, fmt.Errorf("sched: unknown assignment %d", int(p.Assignment))
	}
	return overhead, validateQueues(ctx, hs)
}

// CanSteal reports whether the device at queue thief may take over h, now
// queued on victim, under the policy's steal rule. The CPU hosts the
// runtime and is not eligible while an accelerator is, and no device takes
// an opcode it has no HLOP for.
func (p Policy) CanSteal(ctx *Context, thief, victim int, h *hlop.HLOP) bool {
	if p.Steal == NoSteal || thief == victim || !ctx.IsEligible(thief) || !ctx.Reg.Get(thief).Supports(h.Op) {
		return false
	}
	return p.Steal == StealAny || ctx.Reg.Get(thief).AccuracyRank() <= ctx.Reg.Get(victim).AccuracyRank()
}

// criticality fills Criticality from the policy's source and returns the
// host-side cost of doing so.
func (p Policy) criticality(ctx *Context, hs []*hlop.HLOP) float64 {
	switch p.Source {
	case Sampled:
		return samplePartitions(ctx, sampling.New(p.Method, p.Rate, ctx.Seed), hs)
	case Canary:
		return canary(ctx, hs)
	case FullScan:
		// Striding at rate 1 reads every element of the region, row-major,
		// through the same reader as the other sources.
		all := sampling.New(sampling.Striding, 1, 0)
		for _, h := range hs {
			h.Criticality = sampling.Criticality(all.SampleRegion(h.Inputs[0], h.InputRegion()))
		}
	}
	return 0
}

// canary evaluates IRA's canary: criticality is exact over a dense strided
// read of the partition, and the cost is the kernel run over that subset on
// the host CPU (a touch-cost estimate when there is no CPU).
func canary(ctx *Context, hs []*hlop.HLOP) float64 {
	s := sampling.New(sampling.Striding, IRACanaryRate, ctx.Seed)
	var cpu device.Device
	for _, d := range ctx.Reg.Devices() {
		if d.Kind() == device.CPU {
			cpu = d
			break
		}
	}
	var overhead float64
	for _, h := range hs {
		vals := s.SampleRegion(h.Inputs[0], h.InputRegion())
		h.Criticality = sampling.Criticality(vals)
		n := len(vals)
		if cpu != nil {
			overhead += cpu.ExecTime(h.Op, n) + cpu.DispatchOverhead()
		} else {
			overhead += float64(n) * TouchCostStriding * 50 * ctx.hostScale()
		}
		overhead += float64(n)*TouchCostStriding*ctx.hostScale() + PerPartitionCost
	}
	return overhead
}

// assignTopK ranks each window of partitions by criticality and deals it out
// over ordered (most accurate first) in tierFractions' shares; only the top
// tier is Critical. With two eligible devices and the whole VOP as the
// window this is IRA's and the oracle's binary split.
func (p Policy) assignTopK(ordered []int, hs []*hlop.HLOP) {
	tiers := tierFractions(p.K, hs, len(ordered))
	takes := make([]int, len(tiers))
	for start, w := 0, p.window(hs); start < len(hs); start += w {
		window := append([]*hlop.HLOP(nil), hs[start:min(start+w, len(hs))]...)
		sort.SliceStable(window, func(a, b int) bool {
			return window[a].Criticality > window[b].Criticality
		})
		windowTakes(tiers, len(window), takes)
		j := 0
		for tier, take := range takes {
			for ; take > 0; take-- {
				window[j].AssignedQueue = ordered[tier]
				window[j].Critical = tier == 0
				j++
			}
		}
	}
}

// NeutralTopK writes to queues[i] the queue TopK assigns hs[i] when every
// partition is equally critical: each window is dealt out in partition
// order. It reads no criticality and no tensor value, and changes no HLOP.
func (p Policy) NeutralTopK(ordered []int, hs []*hlop.HLOP, queues []int) {
	tiers := tierFractions(p.K, hs, len(ordered))
	takes := make([]int, len(tiers))
	for start, w := 0, p.window(hs); start < len(hs); start += w {
		windowTakes(tiers, min(w, len(hs)-start), takes)
		j := start
		for tier, take := range takes {
			for ; take > 0; take-- {
				queues[j] = ordered[tier]
				j++
			}
		}
	}
}

// window is TopK's ranking window over hs: Window partitions, or all of them.
func (p Policy) window(hs []*hlop.HLOP) int {
	if p.Window <= 0 {
		return len(hs)
	}
	return p.Window
}

// windowTakes splits a window of n partitions over the tiers: every tier but
// the last takes its rounded share of n, capped at what is left, and the
// last tier absorbs the remainder.
func windowTakes(tiers []float64, n int, takes []int) {
	left := n
	for tier, frac := range tiers {
		take := left
		if tier < len(tiers)-1 {
			take = min(int(float64(n)*frac+0.5), left)
		}
		takes[tier] = take
		left -= take
	}
}

// tierFractions resolves the per-device window shares: the top-K fraction k
// (≤ 0 is 0.25; deadline pressure widens it toward 1) feeds the first tier,
// middle devices share half the remainder, and the least accurate device
// takes the rest.
func tierFractions(k float64, hs []*hlop.HLOP, devices int) []float64 {
	if k <= 0 {
		k = 0.25
	}
	if k > 1 {
		k = 1
	}
	// At full pressure every partition lands on the most accurate device,
	// so a tight-deadline request never pays the NPU quality/repair tax.
	if pr := deadlinePressure(hs); pr > 0 {
		k += (1 - k) * pr
	}
	tiers := make([]float64, devices)
	tiers[0] = k
	for i := 1; i < devices-1; i++ {
		tiers[i] = (1 - k) / 2 / float64(devices-2)
	}
	if devices > 1 {
		var used float64
		for _, f := range tiers[:devices-1] {
			used += f
		}
		tiers[devices-1] = 1 - used
	}
	return tiers
}

// assignLimits is Algorithm 1 with a relative limit: INT8 quantization error
// scales with a partition's value spread against the data's typical spread,
// so the least accurate device's ceiling is TPULimit times the VOP's median
// partition criticality. Partitions at or over it go to the most accurate
// device, Critical.
func (p Policy) assignLimits(ordered []int, hs []*hlop.HLOP) {
	lim := p.TPULimit
	if lim <= 0 {
		lim = 1.5
	}
	ceiling := lim * medianCriticality(hs)
	// Deadline pressure shrinks the ceiling: at full pressure every
	// partition falls through to the most accurate queue.
	if pr := deadlinePressure(hs); pr > 0 {
		ceiling *= 1 - pr
	}
	accurate, loose := ordered[0], ordered[len(ordered)-1]
	for _, h := range hs {
		h.AssignedQueue, h.Critical = accurate, true
		if h.Criticality < ceiling {
			h.AssignedQueue, h.Critical = loose, loose == accurate
		}
	}
}

// deadlinePressure reads the partitions' parent VOP's clamped deadline
// pressure (0 when there is no parent or no pressure). All of a VOP's
// partitions share one parent, so hs[0] speaks for the batch.
func deadlinePressure(hs []*hlop.HLOP) float64 {
	if len(hs) == 0 || hs[0].Parent == nil {
		return 0
	}
	pr := hs[0].Parent.DeadlinePressure
	if pr <= 0 {
		return 0
	}
	if pr > 1 {
		pr = 1
	}
	return pr
}

// medianCriticality returns the median sampled criticality (0 for no HLOPs).
func medianCriticality(hs []*hlop.HLOP) float64 {
	if len(hs) == 0 {
		return 0
	}
	vals := make([]float64, len(hs))
	for i, h := range hs {
		vals[i] = h.Criticality
	}
	sort.Float64s(vals)
	return vals[len(vals)/2]
}
