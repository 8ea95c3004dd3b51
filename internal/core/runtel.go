package core

import (
	"time"

	"shmt/internal/hlop"
	"shmt/internal/interconnect"
	"shmt/internal/telemetry"
)

// telHandles holds the registry-resolved metric pointers a run's telemetry
// needs: per-device counters, gauges and histograms plus the phase
// histograms. Resolving a handle takes the registry's family locks and
// allocates on first use, so the Engine caches one telHandles per (policy,
// device set) and rebuilds it only when either changes — per-run telemetry
// setup is then a single runTel allocation instead of ~a dozen slices and a
// map, and the handles allocate nothing (TestEnabledHotPathAllocatesNothing).
type telHandles struct {
	policy string
	names  []string // device name per queue index

	runs     *telemetry.Counter
	executed []*telemetry.Counter
	steals   []*telemetry.Counter
	assigned []*telemetry.Counter
	breaker  []*telemetry.Gauge
	phases   [4]*telemetry.Histogram // indexed by phaseIndex
}

// phaseIndex maps a phase name to its slot in telHandles.phases.
func phaseIndex(name string) int {
	switch name {
	case telemetry.PhasePartition:
		return 0
	case telemetry.PhaseSchedule:
		return 1
	case telemetry.PhaseExecute:
		return 2
	default: // telemetry.PhaseAggregate
		return 3
	}
}

// telHandlesFor returns the engine's cached handle bundle, rebuilding it when
// the policy or device set changed since the last run.
func (e *Engine) telHandlesFor(policy string) *telHandles {
	n := e.Reg.Len()
	e.thMu.Lock()
	defer e.thMu.Unlock()
	if th := e.th; th != nil && th.policy == policy && len(th.names) == n {
		fresh := true
		for i := 0; i < n; i++ {
			if th.names[i] != e.Reg.Get(i).Name() {
				fresh = false
				break
			}
		}
		if fresh {
			return th
		}
	}
	th := &telHandles{
		policy:   policy,
		names:    make([]string, n),
		runs:     telemetry.Runs.With(policy),
		executed: make([]*telemetry.Counter, n),
		steals:   make([]*telemetry.Counter, n),
		assigned: make([]*telemetry.Counter, n),
		breaker:  make([]*telemetry.Gauge, n),
	}
	for i := 0; i < n; i++ {
		name := e.Reg.Get(i).Name()
		th.names[i] = name
		th.executed[i] = telemetry.HLOPsExecuted.With(name)
		th.steals[i] = telemetry.Steals.With(name)
		th.assigned[i] = telemetry.HLOPsAssigned.With(name)
		th.breaker[i] = telemetry.BreakerState.With(name)
	}
	for _, p := range []string{telemetry.PhasePartition, telemetry.PhaseSchedule,
		telemetry.PhaseExecute, telemetry.PhaseAggregate} {
		th.phases[phaseIndex(p)] = telemetry.PhaseSeconds.With(p)
	}
	e.th = th
	return th
}

// runTel bundles one run's telemetry state: the cached metric handles and the
// optional span recorder. A nil *runTel disables everything; the pipeline
// tests it once per event.
type runTel struct {
	rec   *telemetry.Recorder
	start time.Time
	*telHandles
}

// startTel returns the run's telemetry bundle, kept in the round, or nil
// when telemetry is disabled and no recorder is attached.
func (r *round) startTel(policy string) *runTel {
	e := r.e
	if !telemetry.On() && e.Telemetry == nil {
		return nil
	}
	r.tel = runTel{rec: e.Telemetry, start: time.Now(), telHandles: e.telHandlesFor(policy)}
	return &r.tel
}

// now returns wall seconds on the run's telemetry timeline (the recorder's
// epoch when one is attached, the run start otherwise).
func (rt *runTel) now() float64 {
	if rt.rec != nil {
		return rt.rec.Now()
	}
	return time.Since(rt.start).Seconds()
}

// phase closes one VOP lifecycle phase: it observes the duration histogram,
// records a wall-clock host-lane span, and returns the end time as the next
// phase's start.
func (rt *runTel) phase(name string, startRel float64) float64 {
	end := rt.now()
	rt.phases[phaseIndex(name)].Observe(end - startRel)
	if rt.rec != nil {
		rt.rec.RecordSpan(telemetry.Span{
			Track: "host", Name: name, Clock: telemetry.ClockWall,
			Start: startRel, End: end,
		})
	}
	return end
}

// noteAssignments records the policy's initial HLOP→queue outcomes.
func (rt *runTel) noteAssignments(hs []*hlop.HLOP) {
	for _, h := range hs {
		rt.assigned[h.AssignedQueue].Inc()
		if h.Critical {
			telemetry.CriticalHLOPs.Inc()
		}
	}
}

// traceID resolves the serving-layer trace the HLOP belongs to, if any.
func traceID(h *hlop.HLOP) string {
	if h.Parent != nil {
		return h.Parent.TraceID
	}
	return ""
}

// hlopDone records one HLOP execution: the per-device counter, the steal
// counter when the HLOP was taken from another queue, a virtual-clock
// device-lane span carrying the originating request's trace ID, and the
// transfer-stage spans on the device's "xfer" sub-lane — the inbound staging
// window and the outbound result transfer. Zero-length transfers (devices
// sharing host memory over the zero-copy datapath) draw nothing.
func (rt *runTel) hlopDone(qi, victim int, h *hlop.HLOP, adm interconnect.Admission) {
	rt.executed[qi].Inc()
	stealFrom := ""
	if victim >= 0 && victim != qi {
		rt.steals[qi].Inc()
		stealFrom = rt.names[victim]
	}
	if rt.rec == nil {
		return
	}
	rt.rec.RecordSpan(telemetry.Span{
		Track: rt.names[qi], Name: h.Op.String(), Clock: telemetry.ClockVirtual,
		Start: adm.Start, End: adm.End, ID: h.ID,
		StealFrom: stealFrom, Critical: h.Critical, TraceID: traceID(h),
	})
	track := rt.names[qi] + " xfer"
	if adm.XferEnd > adm.XferStart {
		rt.rec.RecordSpan(telemetry.Span{
			Track: track, Name: "in:" + h.Op.String(), Clock: telemetry.ClockVirtual,
			Start: adm.XferStart, End: adm.XferEnd, ID: h.ID, TraceID: traceID(h),
		})
	}
	if adm.OutEnd > adm.OutStart {
		rt.rec.RecordSpan(telemetry.Span{
			Track: track, Name: "out:" + h.Op.String(), Clock: telemetry.ClockVirtual,
			Start: adm.OutStart, End: adm.OutEnd, ID: h.ID, TraceID: traceID(h),
		})
	}
}

// dispatchFailed records a failed dispatch's device-lane fault span — the
// interval of dispatch overhead plus backoff charged for an HLOP that
// errored. The Perfetto export colours fault spans as errors.
func (rt *runTel) dispatchFailed(qi int, h *hlop.HLOP, start, end float64) {
	if rt.rec != nil {
		rt.rec.RecordSpan(telemetry.Span{
			Track: rt.names[qi], Name: "fault:" + h.Op.String(), Clock: telemetry.ClockVirtual,
			Start: start, End: end, ID: h.ID, Fault: true, TraceID: traceID(h),
		})
	}
}

// breakerState publishes a device's circuit-breaker state transition.
func (rt *runTel) breakerState(qi int, state int64) {
	rt.breaker[qi].Set(state)
}
