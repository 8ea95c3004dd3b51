package core

import (
	"math"

	"shmt/internal/breaker"
	"shmt/internal/device"
	"shmt/internal/hlop"
	"shmt/internal/telemetry"
)

// This file is the engine's graceful-degradation layer: instead of "retry
// then abort", a device that keeps failing is quarantined behind a per-device
// circuit breaker, its backlog is redistributed to healthy devices, transient
// errors are retried under exponential backoff, and the whole episode is
// quantified in Report.Degraded. The breaker is internal/breaker's state
// machine, the one the router's pool uses for backends, driven here on the
// device's virtual lane clock.
//
// Quarantine is modelled as idle virtual time: when the breaker opens, the
// device's clock jumps past the cooldown, so healthy devices (whose clocks
// are earlier) drain its queue through the existing steal path, and the
// device's next own-queue HLOP — picked no earlier than the cooldown's end —
// runs as the re-admission probe. The jump is the cooldown, so the engine
// never asks breaker.ProbeDue: a float comparison there could flip a probe
// and move every figure. Breaker state persists across an Engine's runs, so a
// device that died in one batch is not re-assigned work in the next.

// resilience holds the engine's fault-handling values. Its zero value selects
// the defaults below, which every session runs with; only this package's
// tests set other values. It is always active — a run with no failures pays
// nothing.
type resilience struct {
	// BreakerThreshold is the consecutive-failure count that opens a
	// device's breaker (default 3).
	BreakerThreshold int
	// BreakerCooldown is the initial quarantine length in virtual seconds
	// (default 5ms). Each failed re-admission probe doubles it, up to
	// CooldownCap.
	BreakerCooldown float64
	// CooldownCap bounds the doubled cooldown (default 1s).
	CooldownCap float64
	// BackoffBase is the first retry backoff in virtual seconds (default
	// 200µs); consecutive failures double it up to BackoffCap.
	BackoffBase float64
	// BackoffCap bounds the exponential backoff (default 20ms).
	BackoffCap float64
	// MaxRetries bounds how many dispatches one HLOP may fail before the
	// run errors out (default 4).
	MaxRetries int
}

func (r resilience) withDefaults() resilience {
	if r.BreakerThreshold <= 0 {
		r.BreakerThreshold = 3
	}
	if r.BreakerCooldown <= 0 {
		r.BreakerCooldown = 5e-3
	}
	if r.CooldownCap <= 0 {
		r.CooldownCap = 1.0
	}
	if r.BackoffBase <= 0 {
		r.BackoffBase = 200e-6
	}
	if r.BackoffCap <= 0 {
		r.BackoffCap = 20e-3
	}
	if r.MaxRetries <= 0 {
		r.MaxRetries = 4
	}
	return r
}

// backoff is the exponential retry backoff charged for a device's fails-th
// consecutive failure: BackoffBase doubled per earlier failure, capped at
// BackoffCap.
func (r resilience) backoff(fails int) float64 {
	exp := min(fails-1, 16)
	return min(r.BackoffBase*math.Pow(2, float64(exp)), r.BackoffCap)
}

// breakerSet lazily builds the engine's persistent per-device breakers,
// tuned by the engine's resilience values when it builds them.
func (e *Engine) breakerSet() []*breaker.Breaker {
	e.brMu.Lock()
	defer e.brMu.Unlock()
	if len(e.brs) != e.Reg.Len() {
		rz := e.resilience.withDefaults()
		e.brs = make([]*breaker.Breaker, e.Reg.Len())
		for i := range e.brs {
			e.brs[i] = breaker.New(rz.BreakerThreshold, rz.BreakerCooldown, rz.CooldownCap)
		}
		// A new breaker set means a new (or resized) device set: any plan
		// captured against the old queue indices is meaningless.
		e.planEpoch.Add(1)
	}
	return e.brs
}

// QuarantinedDevices returns the names of devices whose breaker is currently
// open — work submitted now will not be assigned to them.
func (e *Engine) QuarantinedDevices() []string {
	if e.Reg == nil {
		return nil
	}
	var names []string
	for i, b := range e.breakerSet() {
		if b.Quarantined() {
			names = append(names, e.Reg.Get(i).Name())
		}
	}
	return names
}

// Quarantine is one breaker-open event.
type Quarantine struct {
	// Device is the quarantined device's name.
	Device string
	// At is the virtual time the breaker opened.
	At float64
	// Cooldown is the quarantine length in virtual seconds.
	Cooldown float64
	// Rerouted is how many backlog HLOPs were redistributed when the
	// breaker opened.
	Rerouted int
}

// Degraded quantifies a run's graceful-degradation activity: which devices
// were quarantined, how much work was rerouted, and the quality impact when
// rerouted work executed at lower accuracy. Nil when the run saw no faults.
type Degraded struct {
	// Quarantines lists breaker-open events in occurrence order.
	Quarantines []Quarantine
	// FailedDispatches counts dispatches that returned an error.
	FailedDispatches int
	// FailedDispatchSeconds is the virtual time charged for them (dispatch
	// overhead plus backoff).
	FailedDispatchSeconds float64
	// BackoffSeconds is the portion of that spent in exponential backoff.
	BackoffSeconds float64
	// Rerouted counts HLOPs the failure path moved off their assigned
	// device (steals are not degradation and are not counted).
	Rerouted int
	// ReroutedElems is those HLOPs' total element count.
	ReroutedElems int
	// Downgraded counts rerouted HLOPs that ultimately executed on a device
	// with a worse accuracy rank than originally assigned — e.g. exact work
	// that fell back to the INT8 NPU.
	Downgraded int
	// DowngradedElems is the element count computed at reduced accuracy;
	// relative to the VOP size it bounds the quality impact.
	DowngradedElems int
	// ProbeSuccesses counts re-admissions (quarantined device recovered).
	ProbeSuccesses int
	// ProbeFailures counts probes that re-opened the breaker.
	ProbeFailures int
}

// degTracker accumulates one run's Degraded report, from the pick loop. Its
// zero value is ready; reset returns it there, keeping the map's storage.
type degTracker struct {
	d         Degraded
	origQueue map[*hlop.HLOP]int // first pre-reroute queue, per moved HLOP; made at the first reroute
}

func (t *degTracker) reset() {
	t.d = Degraded{} // a returned report owns its Quarantines
	clear(t.origQueue)
}

func (t *degTracker) noteFailure(charge, backoff float64) {
	t.d.FailedDispatches++
	t.d.FailedDispatchSeconds += charge
	t.d.BackoffSeconds += backoff
}

func (t *degTracker) noteQuarantine(q Quarantine) {
	t.d.Quarantines = append(t.d.Quarantines, q)
}

func (t *degTracker) noteReroute(h *hlop.HLOP, from int) {
	if t.origQueue == nil {
		t.origQueue = make(map[*hlop.HLOP]int)
	}
	if _, seen := t.origQueue[h]; !seen {
		t.origQueue[h] = from
	}
	t.d.Rerouted++
}

func (t *degTracker) noteProbe(ok bool) {
	if ok {
		t.d.ProbeSuccesses++
	} else {
		t.d.ProbeFailures++
	}
}

// finish resolves quality impact — rerouted HLOPs that executed on a device
// less accurate than originally assigned — and returns the report, or nil
// when the run saw no degradation at all.
func (t *degTracker) finish(reg *device.Registry, done []doneHLOP) *Degraded {
	if t.d.FailedDispatches == 0 && len(t.d.Quarantines) == 0 && t.d.Rerouted == 0 {
		return nil
	}
	for _, dn := range done {
		orig, moved := t.origQueue[dn.h]
		if !moved {
			continue
		}
		t.d.ReroutedElems += dn.h.Elems
		if reg.Get(dn.h.ExecQueue).AccuracyRank() > reg.Get(orig).AccuracyRank() {
			t.d.Downgraded++
			t.d.DowngradedElems += dn.h.Elems
		}
	}
	d := t.d
	return &d
}

// faultState bundles one run's degradation machinery: the resolved tuning,
// the engine's persistent breakers, and the run-scoped degradation tracker.
// takeRound fills it in.
type faultState struct {
	rz  resilience
	brs []*breaker.Breaker
	deg degTracker
}

// quarantined is the sched.Context hook: policies route new work around
// devices whose breaker is open.
func (f *faultState) quarantined(i int) bool { return f.brs[i].Quarantined() }

// injectedDelayer is implemented by the chaos wrapper (and any future
// instrumented device) to surface injected virtual latency; asserting the
// interface here keeps core from importing internal/chaos.
type injectedDelayer interface {
	TakeInjectedDelay() float64
}

// takeInjectedDelay drains a device's pending injected delay, if any.
func takeInjectedDelay(dev device.Device) float64 {
	if d, ok := dev.(injectedDelayer); ok {
		return d.TakeInjectedDelay()
	}
	return 0
}

// noteFault is the step's failed-dispatch bookkeeping: the returned busy
// charge is the dispatch overhead plus exponential backoff (charged to the
// device's clock AND its busy time), idle is the quarantine cooldown to
// advance the clock by when the breaker opened, and the telemetry counters
// and device-lane fault span are recorded here.
func (r *round) noteFault(d *devState, h *hlop.HLOP, wasProbe bool) (busy, idle float64, opened bool) {
	name := d.dev.Name()
	telemetry.HLOPRetries.Inc()
	telemetry.FailedDispatches.With(name).Inc()
	fails, opened, cooldown := d.br.OnFailure(d.lane.Compute)
	backoff := r.fx.rz.backoff(fails)
	busy = d.dev.DispatchOverhead() + backoff
	telemetry.FailedDispatchVirtualNanos.Add(int64(busy * 1e9))
	telemetry.Backoffs.Inc()
	telemetry.BackoffVirtualNanos.Add(int64(backoff * 1e9))
	r.fx.deg.noteFailure(busy, backoff)
	if wasProbe {
		r.fx.deg.noteProbe(false)
		telemetry.BreakerProbeFailure.Inc()
	}
	if opened {
		idle = cooldown
		telemetry.BreakerOpens.With(name).Inc()
		// The eligible device set shrank: cached execution plans may route
		// work to the quarantined device, so invalidate them all.
		r.e.planEpoch.Add(1)
		r.e.notifyBreaker(name, "open")
	}
	if r.rt != nil {
		now := d.lane.Compute
		r.rt.dispatchFailed(d.qi, h, now, now+busy)
		if opened {
			r.rt.breakerState(d.qi, int64(breaker.Open))
		}
	}
	return busy, idle, opened
}

// noteRecovery records a successful dispatch's breaker bookkeeping,
// re-admitting the device when the dispatch was its half-open probe.
func (r *round) noteRecovery(d *devState) {
	if !d.br.OnSuccess() {
		return
	}
	r.fx.deg.noteProbe(true)
	telemetry.BreakerProbeSuccess.Inc()
	// The re-admitted device widens the eligible set; plans captured while it
	// was quarantined would keep routing around it, so invalidate them.
	r.e.planEpoch.Add(1)
	r.e.notifyBreaker(d.dev.Name(), "readmitted")
	if r.rt != nil {
		r.rt.breakerState(d.qi, int64(breaker.Closed))
	}
}
