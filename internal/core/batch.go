package core

import (
	"errors"
	"fmt"
	"slices"

	"shmt/internal/energy"
	"shmt/internal/hlop"
	"shmt/internal/interconnect"
	"shmt/internal/sched"
	"shmt/internal/telemetry"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// BatchResult is the outcome of co-scheduling several independent VOPs over
// the same device queues.
type BatchResult struct {
	// Reports holds one report per submitted VOP, in submission order. Each
	// report carries that VOP's own Output, HLOPs, Makespan (its completion
	// on the shared timeline) and execution profile; the accounting the VOPs
	// share — Busy, Comm, Energy, PeakBytes, Degraded — is batch-wide
	// and lives on the fields below.
	Reports []*Report
	// Makespan is the batch's end-to-end virtual latency.
	Makespan float64
	// Busy is the per-device busy time across the whole batch.
	Busy map[string]float64
	// Energy integrates the platform power over the batch makespan.
	Energy energy.Breakdown
	// Comm is the batch-wide data-movement accounting.
	Comm interconnect.Tracker
	// PeakBytes is the batch's peak host-memory footprint (Fig. 11).
	PeakBytes int64
	// Degraded quantifies batch-wide fault handling (quarantines, reroutes,
	// quality impact); nil when the batch saw no device failures.
	Degraded *Degraded
	// StageWall is the batch's host wall-clock stage durations; the serving
	// layer splits them across the coalesced requests' trace records. Zero
	// when telemetry was inactive for the run (no clock reads on the
	// disabled path).
	StageWall StageWall
}

// StageWall attributes a batch's host wall-clock time to pipeline stages,
// in seconds.
type StageWall struct {
	// Plan covers per-VOP partitioning and device assignment (or plan-cache
	// replay).
	Plan float64
	// Transfer covers quantize/transfer staging: output allocation and
	// view binding before execution.
	Transfer float64
	// Execute covers the engine run.
	Execute float64
	// Aggregate covers result aggregation back into per-VOP outputs.
	Aggregate float64
}

// RunBatch executes several independent VOPs in one scheduling round: every
// VOP's HLOPs share the device queues (interleaved round-robin so the VOPs
// progress together), stealing operates across the whole pool, and each
// VOP's partitions aggregate into its own output. This is the
// oversubscription §5.6 leans on — "the amount of HLOPs from each
// application allows the SHMT runtime system to easily oversubscribe
// available processing resources". It is also the engine's one pipeline:
// Run is RunBatch of one VOP.
func (e *Engine) RunBatch(vops []*vop.VOP) (*BatchResult, error) {
	if e.Reg == nil {
		return nil, errors.New("core: engine has no device registry")
	}
	if len(vops) == 0 {
		return nil, errors.New("core: empty batch")
	}
	pol := e.Policy
	if pol == (sched.Policy{}) {
		row, _ := sched.Lookup("work-stealing")
		pol = row.Policy
	}
	r := e.takeRound()
	defer e.putRound(r)
	rt := r.startTel(pol.Name)
	var phaseT, planStart float64
	if rt != nil {
		phaseT = rt.now()
		planStart = phaseT
	}
	var sw StageWall

	// Partition and assign per VOP (window semantics stay per VOP), then
	// interleave into one pool with globally unique IDs. A lone VOP's
	// partitioning is a phase of its own; a batch's partitioning and
	// assignment interleave per VOP, so they are one scheduling phase.
	// An adaptive row prices a lone VOP only (price.go): a batch runs its
	// partitioned policy, under that policy's plan-cache keys.
	planRT, planPol := rt, pol
	if len(vops) > 1 {
		planRT, planPol = nil, pol.Partitioned()
	}
	if r.parentIdx == nil {
		r.parentIdx = make(map[*vop.VOP]int, len(vops))
	}
	r.perVOP = sized(r.perVOP, len(vops))
	var overhead float64
	nextID := 0
	for i, v := range vops {
		if _, dup := r.parentIdx[v]; dup {
			return nil, fmt.Errorf("core: vop %d submitted twice in one batch", i)
		}
		r.parentIdx[v] = i
		hs, ovh, t, err := r.planVOP(planPol, v, planRT, phaseT)
		if err != nil {
			return nil, fmt.Errorf("core: vop %d: %w", i, err)
		}
		phaseT = t
		overhead += ovh
		if rt != nil {
			rt.noteAssignments(hs)
		}
		for _, h := range hs {
			h.ID = nextID
			nextID++
		}
		r.perVOP[i] = hs
	}
	pool := r.perVOP[0]
	if len(vops) > 1 {
		r.pooled = interleave(r.pooled[:0], r.perVOP)
		pool = r.pooled
	}
	if rt != nil {
		phaseT = rt.phase(telemetry.PhaseSchedule, phaseT)
		sw.Plan = phaseT - planStart
	}

	// Pre-allocate each output and hand every halo-free partition a strided
	// view into it. Shared-memory devices write results through the view, so
	// theirs land without a copy. base sums the VOPs' long-lived buffers, the
	// floor of the Fig. 11 footprint.
	r.outs = sized(r.outs, len(vops))
	outs := r.outs
	nViews := 0
	for i, v := range vops {
		if !v.Op.IsReduction() && v.HaloWidth() == 0 {
			nViews += len(r.perVOP[i])
		}
	}
	r.views = sized(r.views, nViews)
	views := r.views
	var base int64
	for i, v := range vops {
		base += baseBytes(v)
		if !v.Op.IsReduction() {
			rows, cols := v.OutputShape()
			if outs[i] = v.Dst; v.Dst == nil {
				outs[i] = tensor.NewMatrix(rows, cols)
			} else if v.Dst.Rows != rows || v.Dst.Cols != cols || len(v.Dst.Data) != rows*cols {
				return nil, fmt.Errorf("core: vop %d: destination is not a dense %dx%d matrix", i, rows, cols)
			} else {
				clear(v.Dst.Data) // what NewMatrix hands over
			}
			if v.HaloWidth() == 0 {
				if err := bindOutputViews(outs[i], r.perVOP[i], views); err != nil {
					return nil, fmt.Errorf("core: vop %d: %w", i, err)
				}
				views = views[len(r.perVOP[i]):]
			}
		}
	}

	// The staging interval (output allocation + view binding above) sits
	// inside the execute phase span; split it out for the per-request stage
	// breakdown without disturbing the phase telemetry.
	var xferEnd float64
	if rt != nil {
		xferEnd = rt.now()
		sw.Transfer = xferEnd - phaseT
	}

	r.start(pol, pool, overhead, rt)
	err := r.runDeterministic(pool)
	r.pf.drain()
	if err != nil {
		r.release()
		return nil, err
	}
	busy, deviceMakespan := r.finish()
	if rt != nil {
		phaseT = rt.phase(telemetry.PhaseExecute, phaseT)
		sw.Execute = phaseT - xferEnd
	}

	// Aggregation timeline: the host drains completion queues while devices
	// still run (§3.3.1), so on the one host timeline each copy starts at
	// max(previous copy end, HLOP completion), and only the tail beyond
	// device completion is exposed. Results that aliased the output through a
	// view have no copy to charge. A VOP is complete at its last HLOP's
	// finish or, if anything of it was copied, when its last copy ends.
	// (Each compute task recorded whether its result aliased. Splits inherit
	// their parent pointer, so ownership resolves through Parent.)
	copyBw := interconnect.HostDRAM.BandwidthBps
	r.ends = sized(r.ends, len(vops))
	ends := r.ends
	aggT := overhead
	for _, d := range r.done {
		i := r.parentIdx[d.h.Parent]
		aggT = max(aggT, d.h.Finish)
		if !d.aliased {
			aggT += float64(d.h.OutputBytes(tensor.ElemSize)) / copyBw
			ends[i] = aggT
		} else {
			ends[i] = max(ends[i], d.h.Finish)
		}
	}
	r.groupByVOP(len(vops))

	batch := &BatchResult{Busy: busy, Comm: r.comm, PeakBytes: base + r.maxStaging,
		Degraded: r.fx.deg.finish(e.Reg, r.done), Makespan: max(deviceMakespan, aggT),
		Reports: make([]*Report, len(vops))}
	var aggBytes int64
	for i, v := range vops {
		done := r.grouped[r.groupAt[i]:r.groupAt[i+1]]
		out, n, err := r.aggregate(v, done, outs[i])
		if err != nil {
			return nil, fmt.Errorf("core: vop %d: %w", i, err)
		}
		aggBytes += n
		rep := &Report{Output: out, HLOPs: len(done), Makespan: ends[i], SchedOverhead: overhead}
		rep.CriticalHLOPs, rep.DeviceHLOPs = e.execProfile(done)
		batch.Reports[i] = rep
	}
	// The host is busy for sampling and aggregation.
	batch.Busy["cpu"] += overhead + float64(aggBytes)/copyBw
	batch.Energy = energy.DefaultModel().Energy(energy.Usage{Makespan: batch.Makespan, Busy: batch.Busy})
	if rt != nil {
		aggEnd := rt.phase(telemetry.PhaseAggregate, phaseT)
		sw.Aggregate = aggEnd - phaseT
		rt.runs.Inc()
		batch.StageWall = sw
	}
	return batch, nil
}

// groupByVOP sorts the admitted HLOPs by VOP into r.grouped, each VOP's in
// admission order: VOP i's are grouped[groupAt[i]:groupAt[i+1]].
func (r *round) groupByVOP(n int) {
	at := sized(r.groupAt, n+2)
	for _, d := range r.done {
		at[r.parentIdx[d.h.Parent]+2]++
	}
	for i := 2; i < len(at); i++ {
		at[i] += at[i-1]
	}
	// at[i+1] is where VOP i's HLOPs start; placing one advances it, so it
	// ends where they end, which is where VOP i+1's start.
	grouped := sized(r.grouped, len(r.done))
	for _, d := range r.done {
		i := r.parentIdx[d.h.Parent] + 1
		grouped[at[i]] = d
		at[i]++
	}
	r.groupAt, r.grouped = at[:n+1], grouped
}

// sized returns s resized to n zero elements, in its own storage when that
// holds them.
func sized[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// interleave merges per-VOP HLOP lists round-robin, appending to out.
func interleave(out []*hlop.HLOP, groups [][]*hlop.HLOP) []*hlop.HLOP {
	for i := 0; ; i++ {
		appended := false
		for _, g := range groups {
			if i < len(g) {
				out = append(out, g[i])
				appended = true
			}
		}
		if !appended {
			return out
		}
	}
}
