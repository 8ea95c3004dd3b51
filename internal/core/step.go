package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"shmt/internal/breaker"
	"shmt/internal/device"
	"shmt/internal/hlop"
	"shmt/internal/interconnect"
	"shmt/internal/parallel"
	"shmt/internal/sched"
	"shmt/internal/telemetry"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// This file is the per-HLOP step the pick loop (runDeterministic in
// engine.go) runs on everything it picks, in two halves.
//
// admit is everything the loop branches on or accounts: the device's
// admission (device.Device.Admit), the ErrTooLarge split, fault accounting and
// rerouting, the lane admission that advances virtual time, and the
// completion bookkeeping. All of it is a function of shapes, the cost model
// and the fault schedule — never of tensor values — and it runs on one
// goroutine, one HLOP after another.
//
// compute is the arithmetic of an admitted HLOP (executeHLOP), whose only
// output is h.Result, and the landing of that result in the VOP's output.
// Once a round is admitted, computeAdmitted runs every admitted HLOP's
// compute half as a task of its own on the host pool.

// splitCost is the host-side cost of re-partitioning an HLOP that
// overflowed a device's memory.
const splitCost = 50e-6

// devState is one device's state within a round. The virtual clock is the
// lane: interconnect.Lane.Admit is the only thing that advances time for a
// completed HLOP, and fault charges move lane.Compute directly.
type devState struct {
	qi   int
	dev  device.Device
	br   *breaker.Breaker
	lane interconnect.Lane
	busy float64
	ran  bool
	q    []*hlop.HLOP // the incoming queue: the owner pops the head, thieves take the tail
}

// pushFront requeues h at the head, shifting within the backing array.
func (d *devState) pushFront(h *hlop.HLOP) {
	d.q = append(d.q, nil)
	copy(d.q[1:], d.q)
	d.q[0] = h
}

// round is one execution round: the pooled HLOPs of a batch running over the
// device set. Everything up to computeErr belongs to the pick loop alone.
//
// A round is also the engine's reusable round scratch: RunBatch takes the
// engine's spare (takeRound) and gives it back on every exit (putRound), so
// a warm round allocates only what it hands back to the caller. Everything
// below computeErrAt is storage kept from one round to the next.
type round struct {
	e    *Engine
	ctx  sched.Context
	pol  sched.Policy
	pf   *prefetcher // &r.cache when the round keeps shared operands resident
	rt   *runTel     // &r.tel when telemetry is on
	fx   faultState
	devs []devState

	outstanding int // HLOPs not yet admitted; a split adds one
	nextID      int // next unused HLOP ID, for splits
	retries     map[*hlop.HLOP]int
	done        []doneHLOP // admission order: the host's aggregation order
	comm        interconnect.Tracker
	// maxStaging is the largest staging charge of any admitted HLOP. admit
	// pins an HLOP's staging and releases it in the same call, one HLOP at a
	// time, so the round's Fig. 11 peak is the base buffers plus this.
	maxStaging int64

	// The compute pass's failure, if any: the error of the earliest-admitted
	// HLOP that failed, at its index in done. mu guards it against the pool
	// tasks computeAdmitted runs.
	mu           sync.Mutex
	computeErr   error
	computeErrAt int

	cache prefetcher
	tel   runTel
	slab  []*hlop.HLOP // backing of every device queue
	key   []byte       // the plan key being looked up

	// RunBatch's per-VOP bookkeeping: each VOP's batch position and HLOPs,
	// the pooled HLOPs of a batch (interleaved), outputs, completion times,
	// and the admitted HLOPs grouped by VOP (groupByVOP).
	parentIdx map[*vop.VOP]int
	perVOP    [][]*hlop.HLOP
	pooled    []*hlop.HLOP
	outs      []*tensor.Matrix
	views     []tensor.Matrix // the outputs' views, one per halo-free HLOP
	ends      []float64
	grouped   []doneHLOP
	groupAt   []int
	partials  []*tensor.Matrix // a reduction's partial results, for aggregate

	// The round's pool fan-outs, bound once per round object: a method value
	// made per call is a heap object per call.
	computeFn, warmFn func(lo, hi int)
}

// doneHLOP is an admitted HLOP — its device is h.ExecQueue, its virtual
// completion time h.Finish — and the ticket its compute half runs under.
// Its compute task records how the result landed: through the output view
// (aliased) or copied, and that the HLOP's buffers are released (landed).
type doneHLOP struct {
	h       *hlop.HLOP
	t       device.Ticket
	aliased bool
	landed  bool
}

// takeRound returns the engine's spare round, or a new one when another run
// holds it (or none was ever returned), readied for a run over the engine's
// devices: breakers read, lanes and queues empty.
func (e *Engine) takeRound() *round {
	r := e.spare.Swap(nil)
	if r == nil {
		r = newRound()
	}
	r.e = e
	r.ctx.Reg, r.ctx.Seed, r.ctx.HostScale = e.Reg, e.Seed, max(e.HostScale, 1)
	r.fx.rz, r.fx.brs = e.resilience.withDefaults(), e.breakerSet()
	r.devs = sized(r.devs, e.Reg.Len())
	return r
}

// newRound returns an empty round with its fan-outs bound.
func newRound() *round {
	r := new(round)
	r.ctx.Quarantined = r.fx.quarantined
	r.computeFn, r.warmFn = r.computeRange, r.warmRange
	return r
}

// putRound clears every slot of r that points into the run — HLOPs, VOPs,
// tensors, errors — and keeps r as the engine's spare: nothing of a request
// stays reachable from the engine once RunBatch has returned.
func (e *Engine) putRound(r *round) {
	r.e, r.pf, r.rt = nil, nil, nil
	r.pol = sched.Policy{}
	r.fx.brs = nil
	r.fx.deg.reset()
	clear(r.devs)
	r.outstanding, r.nextID, r.maxStaging = 0, 0, 0
	clear(r.retries)
	clear(r.done)
	r.done = r.done[:0]
	r.comm = interconnect.Tracker{}
	r.computeErr, r.computeErrAt = nil, 0
	r.cache.reset()
	r.tel = runTel{}
	clear(r.slab)
	clear(r.parentIdx)
	clear(r.perVOP)
	clear(r.pooled)
	clear(r.outs)
	clear(r.views)
	clear(r.grouped)
	e.spare.Store(r)
}

// start readies the round for hs, planned with overhead seconds of
// scheduling: every lane starts at the overhead, every HLOP is available from
// that instant. The pick loop fills the queues.
func (r *round) start(pol sched.Policy, hs []*hlop.HLOP, overhead float64, rt *runTel) {
	r.pol, r.rt = pol, rt
	if r.e.Prefetch {
		r.pf = r.cache.census(hs)
	}
	r.outstanding, r.nextID = len(hs), len(hs)
	r.done = slices.Grow(r.done[:0], len(hs))
	for i := range r.devs {
		d := &r.devs[i]
		*d = devState{qi: i, dev: r.e.Reg.Get(i), br: r.fx.brs[i]}
		d.lane.Reset(overhead)
	}
	for _, h := range hs {
		h.ReadyAt = overhead
	}
}

// admit offers h to d's device and, if the device takes it, books its
// completion on d's lane and appends it to r.done, where it awaits only its
// compute half. victim is the queue h was stolen from, -1 when d's own queue
// supplied it. A nil error with h not admitted means the round goes on — h
// was split, rerouted or requeued and will come round again.
func (r *round) admit(d *devState, victim int, h *hlop.HLOP) error {
	e, dev := r.e, d.dev
	stolen := victim >= 0
	wasProbe := !stolen && d.br.BeginProbe()
	t, err := dev.Admit(h.Op, h.Inputs)
	if err != nil {
		if errors.Is(err, device.ErrTooLarge) {
			return r.split(d, h)
		}
		return r.fault(d, h, err, wasProbe)
	}
	r.noteRecovery(d)

	r.maxStaging = max(r.maxStaging, e.stagingBytes(dev, h))
	ready := h.ReadyAt
	if stolen {
		// The prefetched input belonged to the victim's queue: the thief's
		// transfer cannot predate its steal decision.
		ready = d.lane.Compute
	}
	adm, xfer, bytes := e.book(&d.lane, dev, h, ready, takeInjectedDelay(dev))
	d.ran = true
	d.busy += adm.End - adm.Start

	h.ExecQueue, h.Finish = d.qi, adm.OutEnd
	r.comm.Add(bytes, xfer, adm.Exposed)
	r.done = append(r.done, doneHLOP{h: h, t: t})
	if r.rt != nil {
		r.rt.hlopDone(d.qi, victim, h, adm)
	}
	r.outstanding--
	return nil
}

// compute runs an admitted HLOP's arithmetic on the device that admitted it
// and lands the result in its VOP's output (land). An error here is the
// HLOP's own (a kernel shape error): no other device would compute it
// differently, so it fails the round instead of being retried.
func (r *round) compute(d *doneHLOP) error {
	h := d.h
	dev := r.devs[h.ExecQueue].dev
	res, err := r.e.executeHLOP(r.pf, h.ExecQueue, dev, h, d.t)
	if err != nil {
		return fmt.Errorf("core: HLOP %d failed on %s: %w", h.ID, dev.Name(), err)
	}
	h.Result = res
	if h.Op.IsReduction() {
		return nil // a partial: aggregate merges them in HLOP-ID order
	}
	return d.land(r.outs[r.parentIdx[h.Parent]])
}

// computeAdmitted is the round's compute pass: every HLOP the round
// admitted, one task each, on the host pool (inline, in admission order, when
// the pool is one worker wide or the round one HLOP long), after the operands
// they share have been cast once per device. Of several failures the one
// admitted first is reported, whichever worker reached it first.
func (r *round) computeAdmitted() error {
	r.warm()
	parallel.For(len(r.done), 1, r.computeFn)
	return r.computeErr
}

// computeRange is computeAdmitted's pool task over r.done[lo:hi].
func (r *round) computeRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		if err := r.compute(&r.done[i]); err != nil {
			r.mu.Lock()
			if r.computeErr == nil || i < r.computeErrAt {
				r.computeErr, r.computeErrAt = err, i
			}
			r.mu.Unlock()
		}
	}
}

// release returns to the arena what a failed round still holds: the buffers
// of every HLOP that did not land. A landed HLOP released its own in its
// compute task.
func (r *round) release() {
	for _, d := range r.done {
		if !d.landed {
			releaseHLOPBuffers(d.h.Parent, d.h)
		}
	}
}

// split halves an HLOP that overflowed d's device memory and requeues both
// halves at the head of d's queue.
func (r *round) split(d *devState, h *hlop.HLOP) error {
	a, b, err := hlop.Split(h, r.nextID)
	r.nextID++
	if err != nil {
		return fmt.Errorf("core: HLOP %d overflows %s and cannot split: %w", h.ID, d.dev.Name(), err)
	}
	telemetry.HLOPSplits.Inc()
	r.outstanding++ // one HLOP became two
	d.lane.Compute += splitCost
	a.ReadyAt, b.ReadyAt = d.lane.Compute, d.lane.Compute
	d.pushFront(b)
	d.pushFront(a)
	return nil
}

// fault handles a failed dispatch (see degrade.go): it charges dispatch
// overhead plus exponential backoff, then reroutes h to the best healthy
// fallback, or requeues it locally when there is none. Crossing the breaker
// threshold quarantines the device — its clock jumps past the cooldown and
// its backlog is redistributed — and its next own-queue HLOP after the
// cooldown runs as the re-admission probe.
func (r *round) fault(d *devState, h *hlop.HLOP, execErr error, wasProbe bool) error {
	e, dev, deg := r.e, d.dev, &r.fx.deg
	if r.retries == nil {
		r.retries = make(map[*hlop.HLOP]int)
	}
	r.retries[h]++
	tries := r.retries[h]
	busy, idle, opened := r.noteFault(d, h, wasProbe)
	d.lane.Compute += busy
	d.busy += busy
	if tries >= r.fx.rz.MaxRetries {
		return fmt.Errorf("core: HLOP %d failed on %s after retries: %w", h.ID, dev.Name(), execErr)
	}
	if opened {
		openAt := d.lane.Compute
		d.lane.Compute += idle // quarantine is idle virtual time
		moved, kept := 0, 0
		backlog := d.q
		d.q = nil
		for bi, b := range backlog {
			// Hold the last backlog item back as the re-admission probe: an
			// emptied queue would leave a recovered device quarantined
			// forever with nothing to probe.
			if bi == len(backlog)-1 && kept == 0 {
				d.q = append(d.q, b)
				continue
			}
			alt := e.fallbackQueue(&r.ctx, d.qi, b)
			if alt < 0 {
				d.q = append(d.q, b) // probe fodder
				kept++
				continue
			}
			r.reroute(d, b, alt, openAt)
			moved++
		}
		deg.noteQuarantine(Quarantine{Device: dev.Name(), At: openAt, Cooldown: idle, Rerouted: moved})
	}
	// With no healthy fallback h stays at the front of the owner's queue and
	// the retry bound decides between recovery and surfacing the error.
	if alt := e.fallbackQueue(&r.ctx, d.qi, h); alt >= 0 {
		r.reroute(d, h, alt, d.lane.Compute)
	} else {
		h.ReadyAt = d.lane.Compute
		d.pushFront(h)
	}
	return nil
}

// reroute moves h off failing device d onto queue alt, available from at.
func (r *round) reroute(d *devState, h *hlop.HLOP, alt int, at float64) {
	r.fx.deg.noteReroute(h, h.AssignedQueue)
	telemetry.HLOPsRerouted.With(d.dev.Name()).Inc()
	h.AssignedQueue = alt
	h.ReadyAt = at
	r.devs[alt].q = append(r.devs[alt].q, h)
}

// finish closes the round's virtual timeline: per-device busy seconds, the
// outbound tails the pipeline could not hide, and the device makespan.
func (r *round) finish() (busy map[string]float64, makespan float64) {
	busy = make(map[string]float64, len(r.devs)+1)
	for i := range r.devs {
		d := &r.devs[i]
		if d.busy > 0 {
			busy[d.dev.Name()] = d.busy
		}
		if !d.ran {
			continue
		}
		// The outbound tail no compute follows is the one transfer cost the
		// pipeline cannot hide.
		r.comm.Add(0, 0, d.lane.Drain())
		makespan = max(makespan, d.lane.Makespan())
	}
	return busy, makespan
}

// fallbackQueue picks the most accurate other eligible device for a failed
// HLOP.
func (e *Engine) fallbackQueue(ctx *sched.Context, failed int, h *hlop.HLOP) int {
	best := -1
	for _, i := range ctx.Eligible() {
		if i == failed || !e.Reg.Get(i).Supports(h.Op) {
			continue
		}
		if best < 0 || e.Reg.Get(i).AccuracyRank() < e.Reg.Get(best).AccuracyRank() {
			best = i
		}
	}
	return best
}

// book schedules h through lane on dev's cost model, delay seconds of
// injected latency added to its execution, and returns the admission, the
// raw transfer time and the bytes moved. It is the lane arithmetic admission
// and pricing (price.go) share; it reads shapes only.
func (e *Engine) book(lane *interconnect.Lane, dev device.Device, h *hlop.HLOP, ready, delay float64) (interconnect.Admission, float64, int64) {
	exec, inT, outT, bytes := e.hlopParts(dev, h)
	exec += delay
	adm := lane.Admit(ready, dev.DispatchOverhead(), inT, exec, outT, e.DoubleBuffer)
	return adm, inT + outT, bytes
}

// hlopParts models one HLOP's cost components on a device: execution time
// plus the input and output transfer times the two-stage lane schedules.
// Devices with private memory (Edge TPU) move raw payload over their link;
// host-memory devices (CPU, GPU) stage the opcode's calibrated traffic
// through LPDDR4. How much of the transfer time is exposed is not decided
// here — interconnect.Lane.Admit serializes the transfer stage against the
// compute stage and reports the true stall.
func (e *Engine) hlopParts(dev device.Device, h *hlop.HLOP) (exec, inT, outT float64, bytes int64) {
	exec = dev.ExecTime(h.Op, h.Elems)
	inB := h.InputBytes(dev.ElemBytes())
	outB := h.OutputBytes(dev.ElemBytes())
	if dev.MemoryBytes() == 0 {
		inB = device.StageBytes(h.Op, inB)
		outB = device.StageBytes(h.Op, outB)
	}
	link := dev.Link()
	return exec, link.TransferTime(inB), link.TransferTime(outB), inB + outB
}

// stagingBytes returns the transient host bytes an HLOP pins while executing
// on dev: the device-precision input and output copies, doubled when double
// buffering prefetches the next partition, plus the kernel's intermediate
// stage buffers. On shared-memory devices, inputs aliased through views and
// results written through the output view pin nothing beyond the base
// tensors, so they drop out of the staging footprint.
func (e *Engine) stagingBytes(dev device.Device, h *hlop.HLOP) int64 {
	elem := dev.ElemBytes()
	shared := dev.MemoryBytes() == 0
	var stage int64
	for _, in := range h.Inputs {
		if shared && in.IsView() {
			continue // reads the parent tensor in place
		}
		stage += in.Bytes(elem)
	}
	if !shared || h.Out == nil {
		stage += h.OutputBytes(elem)
	}
	if e.DoubleBuffer {
		stage *= 2
	}
	return stage
}
