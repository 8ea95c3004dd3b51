// Package core is the SHMT runtime system — the paper's primary
// contribution (§3.3): the virtual-device driver that accepts VOPs,
// partitions them into HLOPs, distributes HLOPs across per-device queue
// pairs, balances load by work stealing under the active policy's quality
// constraints, moves and casts data, and aggregates completed partitions
// back into the application's result.
//
// Every entry point is one pipeline (RunBatch: plan → bind → run → aggregate
// → report; Run is a batch of one) and every HLOP goes through one step in
// two halves (step.go). admit decides: the device's admission, split, fault
// handling, lane admission, accounting — all from shapes, the cost model and
// the fault schedule, never from tensor values. compute is the arithmetic,
// whose only output is the HLOP's result, and lands that result in the VOP's
// output. Virtual time is each device's interconnect.Lane.
//
// One pick loop drives the step. runDeterministic (this file) is a
// sequential discrete-event choice: the device with the earliest lane clock
// obtains the next HLOP, from its own queue or by stealing under the policy,
// and admits it. Once the whole round is admitted, its HLOPs are computed on
// the host pool (internal/parallel), one task each — one scheduler decides in
// virtual time, the host's cores execute. Every result, makespan and figure
// is therefore exactly reproducible, at any pool width.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"shmt/internal/breaker"
	"shmt/internal/device"
	"shmt/internal/energy"
	"shmt/internal/hlop"
	"shmt/internal/interconnect"
	"shmt/internal/sched"
	"shmt/internal/telemetry"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// Engine executes VOPs over a device registry under a scheduling policy.
type Engine struct {
	// Reg is the device set (queue index order).
	Reg *device.Registry
	// Policy is the scheduling policy (usually a row of sched.Table); the
	// zero value defaults to work stealing.
	Policy sched.Policy
	// Spec configures the VOP→HLOP partitioner.
	Spec hlop.Spec
	// DoubleBuffer overlaps data movement with computation (§5.6). The
	// conventional GPU baseline runs without it; SHMT policies and the
	// software-pipelining baseline run with it. In the virtual-time model
	// each device lane splits into a transfer stage and a compute stage
	// (interconnect.Lane); without DoubleBuffer the stages serialize.
	DoubleBuffer bool
	// Prefetch turns on the resident shared-operand cache, the wall-clock
	// side of double buffering (prefetch.go): an operand several HLOPs of a
	// round share is cast once per casting device and kept resident for all
	// of them. Results are bit-identical either way; a session sets it
	// whenever its policy double-buffers.
	Prefetch bool
	// Seed drives every randomized component (sampling).
	Seed int64
	// HostScale ≥ 1 is the virtual-platform slowdown applied to host-side
	// constant costs (sampling touches); the devices carry their own
	// slowdown. Default 1.
	HostScale float64
	// Telemetry, when non-nil, receives lifecycle and device-lane spans for
	// every run (see internal/telemetry); process-global counters are
	// maintained whenever telemetry is enabled, recorder or not.
	Telemetry *telemetry.Recorder
	// resilience tunes the graceful-degradation machinery (circuit breakers,
	// backoff, retry bounds — see degrade.go); zero selects the defaults, and
	// only this package's tests set it. The breaker values are read once,
	// when the engine builds its device breakers (its first run).
	resilience resilience
	// PlanCacheEntries, when positive, enables the memoized execution-plan
	// layer with that LRU capacity: repeated same-shape VOPs replay the
	// captured partition geometry and device assignment instead of
	// re-planning (see plancache.go). 0 (the default) plans every run from
	// scratch.
	PlanCacheEntries int
	// breakerNotify holds the circuit-breaker transition callback (see
	// SetBreakerNotify). Atomic so registration may race with the execution
	// path reading it — a session wiring its observer while requests are in
	// flight is safe, it just may miss transitions that were already firing.
	breakerNotify atomic.Pointer[func(device, event string)]

	// Per-device circuit breakers, lazily sized to Reg and persistent across
	// runs so a dead device stays quarantined between batches.
	brMu sync.Mutex
	brs  []*breaker.Breaker

	// Cached metric handles (see telHandles); rebuilt when the policy or
	// device set changes.
	thMu sync.Mutex
	th   *telHandles

	// Memoized execution plans (plancache.go), guarded by the device-health
	// epoch: breaker transitions advance planEpoch, so plans captured against
	// a different eligible device set miss instead of replaying.
	pcMu      sync.Mutex
	pc        *planCache
	planEpoch atomic.Uint64

	// spare is the round scratch the last RunBatch gave back (step.go); nil
	// while a run holds it, or before the first run.
	spare atomic.Pointer[round]
}

// SetBreakerNotify registers fn to be called on circuit-breaker transitions
// with the device name and event ("open" or "readmitted"). It runs on the
// engine's execution path, so it must be quick and must not call back into
// the engine. nil removes the callback. Safe to call while runs are in
// flight: the execution path reads the registration atomically.
func (e *Engine) SetBreakerNotify(fn func(device, event string)) {
	if fn == nil {
		e.breakerNotify.Store(nil)
		return
	}
	e.breakerNotify.Store(&fn)
}

// notifyBreaker invokes the registered breaker callback, if any.
func (e *Engine) notifyBreaker(device, event string) {
	if fn := e.breakerNotify.Load(); fn != nil {
		(*fn)(device, event)
	}
}

// Report is the outcome of one VOP execution.
type Report struct {
	// Output is the computed result, restored to float64.
	Output *tensor.Matrix
	// HLOPs is how many HLOPs ultimately executed (splits included).
	HLOPs int
	// Makespan is the end-to-end virtual latency in seconds, including
	// scheduling overhead and exposed aggregation.
	Makespan float64
	// SchedOverhead is the policy's pre-dispatch cost (sampling, canary
	// computation) in seconds.
	SchedOverhead float64
	// Busy maps device name to busy seconds (the energy model's input).
	Busy map[string]float64
	// Comm is the data-movement accounting (Table 3).
	Comm interconnect.Tracker
	// Energy is the integrated platform energy for the run.
	Energy energy.Breakdown
	// PeakBytes is the peak host-memory footprint (Fig. 11).
	PeakBytes int64
	// Degraded quantifies fault handling (quarantines, reroutes, quality
	// impact); nil when the run saw no device failures.
	Degraded *Degraded
	// CriticalHLOPs counts the HLOPs the policy marked critical (routed to
	// the most accurate device for quality); with deadline pressure applied
	// this fraction rises, which is how a tight-deadline request's report
	// shows it kept high-accuracy devices.
	CriticalHLOPs int
	// DeviceHLOPs counts executed HLOPs per device name (where partitions
	// actually ran, stealing included).
	DeviceHLOPs map[string]int
}

// execProfile summarizes where a run's HLOPs executed: how many were
// criticality-marked, and the per-device execution counts.
func (e *Engine) execProfile(done []doneHLOP) (critical int, byDevice map[string]int) {
	byDevice = make(map[string]int, 4)
	for _, d := range done {
		if d.h.Critical {
			critical++
		}
		byDevice[e.Reg.Get(d.h.ExecQueue).Name()]++
	}
	return critical, byDevice
}

// Run executes one VOP end-to-end: a batch of one, with the batch-wide
// accounting folded onto the VOP's own report.
func (e *Engine) Run(v *vop.VOP) (*Report, error) {
	batch, err := e.RunBatch([]*vop.VOP{v})
	if err != nil {
		return nil, err
	}
	rep := batch.Reports[0]
	rep.Makespan = batch.Makespan
	rep.Busy, rep.Comm, rep.Energy = batch.Busy, batch.Comm, batch.Energy
	rep.Degraded, rep.PeakBytes = batch.Degraded, batch.PeakBytes
	return rep, nil
}

// runDeterministic is the pick loop: repeatedly choose the device with the
// earliest virtual clock that can obtain work (own queue, then stealing under
// the policy) and admit that HLOP there. Once the round is decided, its
// arithmetic runs on the host pool.
func (r *round) runDeterministic(hs []*hlop.HLOP) error {
	devs := r.devs
	// Every queue is carved out of one slab, exactly as long as the HLOPs
	// assigned to it: filling it never grows it. A split or a reroute that
	// adds to a full queue moves that queue off the slab.
	if cap(r.slab) < len(hs) {
		r.slab = make([]*hlop.HLOP, len(hs))
	}
	off := 0
	for i := range devs {
		n := 0
		for _, h := range hs {
			if h.AssignedQueue == i {
				n++
			}
		}
		devs[i].q = r.slab[off : off : off+n]
		off += n
	}
	for _, h := range hs {
		d := &devs[h.AssignedQueue]
		d.q = append(d.q, h)
	}
	for r.outstanding > 0 {
		pick, victim, probes, rejected := nextPick(&r.ctx, r.pol, devs)
		if probes > 0 {
			telemetry.StealAttempts.Add(int64(probes))
			telemetry.StealRejected.Add(int64(rejected))
		}
		if pick < 0 {
			return fmt.Errorf("core: %d HLOPs unschedulable (no device may take them)", r.outstanding)
		}
		if err := r.admit(&devs[pick], victim, devs[pick].take(devs, victim)); err != nil {
			return err
		}
	}
	return r.computeAdmitted()
}

// nextPick is the pick loop's choice: of the devices that can obtain work,
// the one with the earliest lane clock, and the queue it steals from (-1 for
// its own). A device obtains work from its own queue or, unless it is
// quarantined (then it serves only its own queue, the probe path), by
// stealing under pol. pick < 0 means no device may take what is queued.
// probes counts the idle devices that looked for a victim, and rejected the
// candidate victims the steal rule refused them.
func nextPick(ctx *sched.Context, pol sched.Policy, devs []devState) (pick, victim, probes, rejected int) {
	pick, victim = -1, -1
	for i := range devs {
		var ok bool
		var vict int
		if len(devs[i].q) > 0 {
			ok, vict = true, -1
		} else if pol.Steal != sched.NoSteal && !ctx.InQuarantine(i) {
			var n int
			vict, n = pickVictim(ctx, pol, devs, i)
			ok = vict >= 0
			probes, rejected = probes+1, rejected+n
		}
		if ok && (pick < 0 || devs[i].lane.Makespan() < devs[pick].lane.Makespan()) {
			pick, victim = i, vict
		}
	}
	return pick, victim, probes, rejected
}

// take pops the HLOP d obtains: the head of its own queue, or the tail of
// devs[victim]'s.
func (d *devState) take(devs []devState, victim int) *hlop.HLOP {
	if victim < 0 {
		h := d.q[0]
		d.q = d.q[1:]
		return h
	}
	q := devs[victim].q
	devs[victim].q = q[:len(q)-1]
	return q[len(q)-1]
}

// pickVictim returns the queue index the thief should steal from. Victims
// are scored by how well the thief suits the stealable (tail) HLOP's opcode
// relative to its current owner — with queue depth as the tiebreak — so in
// mixed-opcode pools (ExecuteBatch) a device gravitates toward work it is
// relatively fast at. For single-opcode runs every victim scores equally and
// this reduces to the paper's steal-from-the-deepest-queue rule. rejected
// counts the candidates the policy's steal rule refused.
func pickVictim(ctx *sched.Context, pol sched.Policy, devs []devState, thief int) (victim, rejected int) {
	thiefDev := devs[thief].dev
	best, bestLen := -1, 0
	bestScore := 0.0
	for vq := range devs {
		q := devs[vq].q
		if vq == thief || len(q) == 0 || !ctx.StealableVictim(vq) {
			continue
		}
		tail := q[len(q)-1]
		if !pol.CanSteal(ctx, thief, vq, tail) {
			rejected++
			continue
		}
		// Relative affinity: how much faster the thief runs this opcode
		// than the queue's owner would.
		score := devs[vq].dev.ExecTime(tail.Op, tail.Elems) / thiefDev.ExecTime(tail.Op, tail.Elems)
		if best < 0 || score > bestScore*1.001 ||
			(score > bestScore*0.999 && len(q) > bestLen) {
			best, bestLen, bestScore = vq, len(q), score
		}
	}
	return best, rejected
}

// baseBytes is a VOP's long-lived memory: its application input and output
// buffers. Per-HLOP staging (device-precision copies, double buffers) is
// accounted live in the pick loop, so PeakBytes reflects what is actually
// resident at once — Edge TPU HLOPs stage INT8 copies, a quarter of the FP32
// the GPU keeps, which is how SHMT's footprint stays near (or below) the
// baseline despite the extra buffers (Fig. 11).
func baseBytes(v *vop.VOP) int64 {
	var n int64
	for _, in := range v.Inputs {
		n += in.Bytes(tensor.ElemSize)
	}
	rows, cols := v.OutputShape()
	return n + int64(rows*cols)*tensor.ElemSize
}

// bindOutputViews attaches to every HLOP a strided view of the VOP output
// covering its region, through which shared-memory devices write results
// directly. The view headers are views[:len(hs)].
func bindOutputViews(out *tensor.Matrix, hs []*hlop.HLOP, views []tensor.Matrix) error {
	for i, h := range hs {
		if err := out.ViewInto(&views[i], h.Region); err != nil {
			return fmt.Errorf("core: binding output view for HLOP %d: %w", h.ID, err)
		}
		h.Out = &views[i]
	}
	return nil
}
