package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"shmt/internal/device"
	"shmt/internal/hlop"
	"shmt/internal/interconnect"
	"shmt/internal/parallel"
	"shmt/internal/sched"
	"shmt/internal/telemetry"
	"shmt/internal/trace"
)

// This file is the per-HLOP step both pick loops share: everything that
// happens after "this device obtained this HLOP", in two halves.
//
// admit is everything a pick loop branches on or accounts: the device's
// admission (device.Device.Admit), the ErrTooLarge split, fault accounting and
// rerouting, the lane admission that advances virtual time, and the
// completion bookkeeping. All of it is a function of shapes, the cost model
// and the fault schedule — never of tensor values.
//
// compute is the arithmetic of an admitted HLOP (executeHLOP); h.Result is
// its only output.
//
// The loops (runDeterministic in engine.go, runConcurrent in concurrent.go)
// differ in who picks next and in when compute runs: the concurrent workers
// compute each HLOP as soon as they admitted it, the deterministic loop
// admits the whole round one by one and then computes it on the host pool.

// splitCost is the host-side cost of re-partitioning an HLOP that
// overflowed a device's memory.
const splitCost = 50e-6

// devState is one device's state within a round. The virtual clock is the
// lane: interconnect.Lane.Admit is the only thing that advances time for a
// completed HLOP, and fault charges move lane.Compute directly.
type devState struct {
	qi   int
	dev  device.Device
	br   *breaker
	lane interconnect.Lane
	etc  *device.ExecTimeCache // shared under the deterministic loop, per device under the concurrent one
	busy float64
	ran  bool

	// The incoming queue, in the representation the pick loop needs: a plain
	// slice the deterministic loop indexes freely, or (tq non-nil) the locked
	// queue pair the concurrent workers pop and steal from.
	q  []*hlop.HLOP
	tq *device.TaskQueue[*hlop.HLOP]

	// skip is obtainConcurrent's scratch: victims already tried during the
	// current attempt.
	skip []bool
}

func (d *devState) push(h *hlop.HLOP) {
	if d.tq != nil {
		d.tq.Push(h)
		return
	}
	d.q = append(d.q, h)
}

// pushFront requeues h at the head, shifting within the backing array.
func (d *devState) pushFront(h *hlop.HLOP) {
	if d.tq != nil {
		d.tq.PushFront(h)
		return
	}
	d.q = append(d.q, nil)
	copy(d.q[1:], d.q)
	d.q[0] = h
}

// drain empties the incoming queue and returns what was pending.
func (d *devState) drain() []*hlop.HLOP {
	if d.tq != nil {
		return d.tq.DrainPending()
	}
	out := d.q
	d.q = nil
	return out
}

// peek returns up to n queue-head HLOPs without removing them.
func (d *devState) peek(n int) []*hlop.HLOP {
	if d.tq != nil {
		return d.tq.Peek(n)
	}
	return d.q[:min(n, len(d.q))]
}

// round is one execution round: the pooled HLOPs of a batch running over the
// device set. The atomics and the mutex cost the single-threaded
// deterministic loop a few uncontended operations per HLOP; they are what
// lets the concurrent workers run the same step.
type round struct {
	e    *Engine
	ctx  *sched.Context
	pol  sched.Policy
	pf   *prefetcher
	tr   *trace.Trace
	rt   *runTel
	fx   *faultState
	devs []devState

	outstanding atomic.Int64 // HLOPs not yet completed; a split adds one
	nextID      atomic.Int64 // next unused HLOP ID, for splits

	mu      sync.Mutex // guards the fields below
	retries map[*hlop.HLOP]int
	done    []doneHLOP // completion order: the host's aggregation order
	comm    interconnect.Tracker
	// The compute pass's failure, if any: the error of the earliest-admitted
	// HLOP that failed, at its index in done.
	computeErr   error
	computeErrAt int
}

// doneHLOP is an admitted HLOP — its device is h.ExecQueue, its virtual
// completion time h.Finish — and the ticket its compute half runs under.
type doneHLOP struct {
	h *hlop.HLOP
	t device.Ticket
}

// newRound readies the device lanes at the scheduling overhead and stamps
// every HLOP available from that instant. The pick loop fills the queues.
func (e *Engine) newRound(ctx *sched.Context, pol sched.Policy, hs []*hlop.HLOP,
	overhead float64, tr *trace.Trace, rt *runTel, fx *faultState) *round {

	r := &round{e: e, ctx: ctx, pol: pol, pf: e.newPrefetcher(hs), tr: tr, rt: rt, fx: fx,
		devs: make([]devState, e.Reg.Len()), done: make([]doneHLOP, 0, len(hs))}
	for i := range r.devs {
		d := &r.devs[i]
		d.qi, d.dev, d.br = i, e.Reg.Get(i), fx.brs[i]
		d.lane.Reset(overhead)
	}
	for _, h := range hs {
		h.ReadyAt = overhead
	}
	r.outstanding.Store(int64(len(hs)))
	r.nextID.Store(int64(len(hs)))
	return r
}

// admit offers h to d's device and, if the device takes it, books its
// completion on d's lane and appends it to r.done. victim is the queue h was
// stolen from, -1 when d's own queue supplied it. admitted reports whether h
// now awaits only its compute half (dn); otherwise a nil error means the
// round goes on — h was split, rerouted or requeued and will come round again.
func (r *round) admit(d *devState, victim int, h *hlop.HLOP) (dn doneHLOP, admitted bool, err error) {
	e, dev := r.e, d.dev
	stolen := victim >= 0
	wasProbe := !stolen && d.br.beginProbe()
	// Stage ahead (concurrent loop only): while h computes, the pool
	// pre-quantizes the operands of the next HLOPs still queued behind it (a
	// stolen h left the thief's own queue empty, so there is nothing to stage
	// for). The deterministic loop computes whole HLOPs on the pool instead,
	// which already overlaps one HLOP's staging with another's kernel — and a
	// prestage job there could pick up, from parallel.For's helping wait, the
	// compute of the very HLOP it stages and wait on itself forever.
	if n := r.pf.peekDepth(); n > 0 && !stolen && e.Concurrent {
		for _, nh := range d.peek(n) {
			r.pf.issue(d.qi, dev, nh)
		}
	}
	t, err := dev.Admit(h.Op, h.Inputs)
	if err != nil {
		r.pf.cancel(h)
		if errors.Is(err, device.ErrTooLarge) {
			return dn, false, r.split(d, h)
		}
		return dn, false, r.fault(d, h, err, wasProbe)
	}
	r.noteRecovery(d)

	stageB := e.stagingBytes(dev, h)
	r.tr.AllocStaging(stageB)
	exec, inT, outT, bytes := e.hlopParts(dev, h, d.etc)
	exec += takeInjectedDelay(dev)
	ready := h.ReadyAt
	if stolen {
		// The prefetched input belonged to the victim's queue: the thief's
		// transfer cannot predate its steal decision.
		ready = d.lane.Compute
	}
	adm := d.lane.Admit(ready, dev.DispatchOverhead(), inT, exec, outT, e.DoubleBuffer)
	d.ran = true
	d.busy += adm.End - adm.Start

	h.ExecQueue, h.Finish = d.qi, adm.OutEnd
	r.mu.Lock()
	r.comm.Add(bytes, inT+outT, adm.Exposed)
	dn = doneHLOP{h: h, t: t}
	r.done = append(r.done, dn)
	r.mu.Unlock()
	if r.rt != nil {
		r.rt.hlopDone(d.qi, victim, h, adm)
	}
	if e.RecordTrace {
		r.tr.Record(trace.Event{
			HLOP: h.ID, Device: dev.Name(), Op: h.Op.String(),
			Start: adm.Start, End: adm.End,
			BytesIn: h.InputBytes(dev.ElemBytes()), BytesOut: h.OutputBytes(dev.ElemBytes()),
			Stolen: stolen || h.AssignedQueue != d.qi, Critical: h.Critical,
		})
	}
	r.tr.FreeStaging(stageB)
	r.outstanding.Add(-1)
	return dn, true, nil
}

// compute runs an admitted HLOP's arithmetic on the device that admitted it.
// An error here is the HLOP's own (a kernel shape error): no other device
// would compute it differently, so it fails the round instead of being
// retried.
func (r *round) compute(d doneHLOP) error {
	dev := r.devs[d.h.ExecQueue].dev
	res, err := r.e.executeHLOP(r.pf, d.h.ExecQueue, dev, d.h, d.t)
	if err != nil {
		return fmt.Errorf("core: HLOP %d failed on %s: %w", d.h.ID, dev.Name(), err)
	}
	d.h.Result = res
	return nil
}

// computeAdmitted is the deterministic loop's compute pass: every HLOP the
// round admitted, one task each, on the host pool (inline, in admission
// order, when the pool is one worker wide or the round one HLOP long), after
// the operands they share have been cast once per device. Of several
// failures the one admitted first is reported, whichever worker reached it
// first.
func (r *round) computeAdmitted() error {
	r.pf.warm(r)
	parallel.For(len(r.done), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := r.compute(r.done[i]); err != nil {
				r.mu.Lock()
				if r.computeErr == nil || i < r.computeErrAt {
					r.computeErr, r.computeErrAt = err, i
				}
				r.mu.Unlock()
			}
		}
	})
	return r.computeErr
}

// release returns to the arena what a failed round computed before it
// failed; a round that succeeds hands its buffers to aggregate instead.
func (r *round) release() {
	for _, d := range r.done {
		releaseHLOPBuffers(d.h.Parent, d.h)
	}
}

// split halves an HLOP that overflowed d's device memory and requeues both
// halves at the head of d's queue.
func (r *round) split(d *devState, h *hlop.HLOP) error {
	a, b, err := hlop.Split(h, int(r.nextID.Add(1)-1))
	if err != nil {
		return fmt.Errorf("core: HLOP %d overflows %s and cannot split: %w", h.ID, d.dev.Name(), err)
	}
	telemetry.HLOPSplits.Inc()
	r.outstanding.Add(1) // one HLOP became two
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
	e, dev, deg := r.e, d.dev, r.fx.deg
	r.mu.Lock()
	if r.retries == nil {
		r.retries = make(map[*hlop.HLOP]int)
	}
	r.retries[h]++
	tries := r.retries[h]
	r.mu.Unlock()
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
		backlog := d.drain()
		for bi, b := range backlog {
			// Hold the last backlog item back as the re-admission probe: an
			// emptied queue would leave a recovered device quarantined
			// forever with nothing to probe.
			if bi == len(backlog)-1 && kept == 0 {
				d.push(b)
				continue
			}
			alt := e.fallbackQueue(r.ctx, d.qi, b)
			if alt < 0 {
				d.push(b) // probe fodder
				kept++
				continue
			}
			r.pf.cancel(b) // a prestage for this queue will never be consumed
			r.reroute(d, b, alt, openAt)
			moved++
		}
		deg.noteQuarantine(Quarantine{Device: dev.Name(), At: openAt, Cooldown: idle, Rerouted: moved})
	}
	// With no healthy fallback h stays at the front of the owner's queue and
	// the retry bound decides between recovery and surfacing the error.
	if alt := e.fallbackQueue(r.ctx, d.qi, h); alt >= 0 {
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
	r.devs[alt].push(h)
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

// hlopParts models one HLOP's cost components on a device: execution time
// plus the input and output transfer times the two-stage lane schedules.
// Devices with private memory (Edge TPU) move raw payload over their link;
// host-memory devices (CPU, GPU) stage the opcode's calibrated traffic
// through LPDDR4. How much of the transfer time is exposed is not decided
// here — interconnect.Lane.Admit serializes the transfer stage against the
// compute stage and reports the true stall.
func (e *Engine) hlopParts(dev device.Device, h *hlop.HLOP, etc *device.ExecTimeCache) (exec, inT, outT float64, bytes int64) {
	exec = etc.ExecTime(dev, h.Op, h.Elems)
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
