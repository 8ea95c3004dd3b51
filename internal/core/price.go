package core

import (
	"math"

	"shmt/internal/hlop"
	"shmt/internal/interconnect"
	"shmt/internal/sched"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// This file is the adaptive rows' pricing (sched.Policy.Adaptive): before a
// lone, freshly partitioned VOP's criticality is sampled, the engine models
// two assignments of the same partitions with the lane arithmetic the round
// itself books (Engine.book, nextPick) and runs the cheaper:
//
//   - one device: every HLOP in the top tier, on the most accurate eligible
//     device. Under accuracy-ordered stealing nothing may steal from it, and
//     it needs no criticality, so it is charged none;
//   - partitioned: the policy's TopK tiers with neutral criticality, charged
//     the policy's sampling cost when the engine has no plan cache — with
//     one, the charge is paid once per key, so it does not count.
//
// Fixed per-HLOP costs (dispatch, sampling) swamp what a second device saves
// on small VOPs (Fig. 12); this is where that shows. Pricing reads shapes
// and cost models only: no tensor value, no Device.Admit, no fault draw, no
// breaker probe. The plan-cache entry captures the chosen assignment, so a
// replay pays nothing and takes the same branch.
//
// A batch of several VOPs is not priced: each VOP's price assumes empty
// lanes, and merged into one round every one-device VOP would queue on the
// same device, which no less accurate device may steal from. RunBatch runs
// a batch under the row's partitioned policy instead
// (sched.Policy.Partitioned).

// pricing is an adaptive row's two prices for one VOP.
type pricing struct {
	device    int  // the queue the one-device branch runs on
	oneDevice bool // whether that branch is the cheaper
	// oneDeviceMakespan and partitionedMakespan are the modelled makespans,
	// in virtual seconds, that the choice compared.
	oneDeviceMakespan, partitionedMakespan float64
}

// price models both branches over hs, freshly partitioned from v and not yet
// assigned. cached reports whether the engine keeps a plan cache. It changes
// no HLOP.
func (e *Engine) price(ctx *sched.Context, pol sched.Policy, v *vop.VOP, hs []*hlop.HLOP, cached bool) pricing {
	// The pick loop asks after the breakers at every step; the model reads
	// each once.
	down := make([]bool, e.Reg.Len())
	for i := range down {
		down[i] = ctx.InQuarantine(i)
	}
	snap := *ctx
	snap.Quarantined = func(i int) bool { return down[i] }
	ctx = &snap

	ordered := ctx.EligibleFor(v.Op)
	queues := make([]int, len(hs))
	for i := range queues {
		queues[i] = ordered[0]
	}
	p := pricing{device: ordered[0]}
	p.oneDeviceMakespan = e.makespanOf(ctx, pol, v, hs, queues, 0)
	var charge float64
	if !cached {
		charge = pol.SamplingCost(ctx, hs)
	}
	pol.NeutralTopK(ordered, hs, queues)
	p.partitionedMakespan = e.makespanOf(ctx, pol, v, hs, queues, charge)
	p.oneDevice = p.oneDeviceMakespan < p.partitionedMakespan
	return p
}

// assignOneDevice is the one-device branch's plan: every HLOP critical, on
// queue q.
func assignOneDevice(q int, hs []*hlop.HLOP) {
	for _, h := range hs {
		h.AssignedQueue, h.Critical = q, true
	}
}

// makespanOf is the makespan RunBatch reports for hs alone, run from queues
// after overhead seconds of scheduling, when no dispatch fails or splits:
// the pick loop over fresh lanes, then the host's aggregation copies.
func (e *Engine) makespanOf(ctx *sched.Context, pol sched.Policy, v *vop.VOP, hs []*hlop.HLOP,
	queues []int, overhead float64) float64 {

	devs := make([]devState, e.Reg.Len())
	for i := range devs {
		devs[i].dev = e.Reg.Get(i)
		devs[i].lane.Reset(overhead)
	}
	for i, h := range hs {
		d := &devs[queues[i]]
		d.q = append(d.q, h)
	}
	// Halo-free, non-reduction outputs are bound as views, which devices on
	// shared host memory write through; everything else is copied.
	viewed := !v.Op.IsReduction() && v.HaloWidth() == 0
	copyBw := interconnect.HostDRAM.BandwidthBps
	aggT, makespan := overhead, 0.0
	for range hs {
		pick, victim, _, _ := nextPick(ctx, pol, devs)
		if pick < 0 {
			return math.Inf(1)
		}
		d := &devs[pick]
		h := d.take(devs, victim)
		ready := overhead
		if victim >= 0 {
			ready = d.lane.Compute
		}
		adm, _, _ := e.book(&d.lane, d.dev, h, ready, 0)
		d.ran = true
		aggT = max(aggT, adm.OutEnd)
		if !viewed || d.dev.MemoryBytes() != 0 {
			aggT += float64(h.OutputBytes(tensor.ElemSize)) / copyBw
		}
	}
	for i := range devs {
		if devs[i].ran {
			makespan = max(makespan, devs[i].lane.Makespan())
		}
	}
	return max(makespan, aggT)
}
