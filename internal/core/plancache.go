package core

import (
	"container/list"
	"slices"
	"strconv"
	"sync"

	"shmt/internal/hlop"
	"shmt/internal/sched"
	"shmt/internal/telemetry"
	"shmt/internal/vop"
)

// This file is the memoized execution-plan layer: production traffic is
// shape-repetitive, yet a fresh Execute re-runs partitioning, criticality
// sampling and device assignment before a single kernel fires. The plan
// cache captures the outcome of that planning phase — partition geometry
// plus the policy's per-HLOP decisions (hlop.Planned) — keyed by everything
// the outcome is a function of except the input *data*:
//
//	opcode | input shapes | scalar attrs | partitioner Spec |
//	policy name + seed | deadline pressure
//
// and guarded by the engine's device-health epoch. A replayed plan
// re-extracts data blocks from the new inputs (so zero-copy views alias the
// right tensors) but skips geometry computation, sampling reads, and the
// assignment pass entirely.
//
// Data-dependent policies (QAWS, IRA, Oracle) sample input values for
// criticality, so a replayed plan reuses the criticality of the run that
// populated the cache. That is the deliberate steady-state-serving
// approximation: same-shaped requests in a stream overwhelmingly share a
// criticality profile, and anything that changes the *eligible device set*
// (the part correctness depends on) invalidates through the health epoch.
// Callers that need per-input fidelity — the paper-reproduction experiment
// harness — run with the cache disabled (Engine.PlanCacheEntries = 0, the
// core default).
//
// Epoch semantics: Engine.planEpoch advances whenever a circuit breaker
// opens or a quarantined device is re-admitted (degrade.go), and when the
// breaker set is rebuilt for a new registry. A plan is stored with the epoch
// read before planning began, so a fault during the very run that populated
// the cache already makes the entry stale; lookup drops entries from other
// epochs and counts an invalidation.

// planCache is an LRU-bounded map from plan key to captured plan. Safe for
// concurrent use; the engine consults it once per VOP, outside the pick
// loop.
type planCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used

	hits, misses, evictions, invalidations uint64
}

type planEntry struct {
	key   string
	epoch uint64
	parts []hlop.Planned
}

func newPlanCache(max int) *planCache {
	return &planCache{max: max, entries: map[string]*list.Element{}, order: list.New()}
}

// lookup returns the plan cached under key, provided it was captured in the
// current device-health epoch. Entries from older epochs are dropped and
// counted as invalidations (plus the miss the caller experiences).
func (c *planCache) lookup(key []byte, epoch uint64) ([]hlop.Planned, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[string(key)] // a lookup by string(key) copies nothing
	if !ok {
		c.misses++
		telemetry.PlanCacheMisses.Inc()
		return nil, false
	}
	en := el.Value.(*planEntry)
	if en.epoch != epoch {
		c.order.Remove(el)
		delete(c.entries, en.key)
		c.invalidations++
		c.misses++
		telemetry.PlanCacheInvalidations.Inc()
		telemetry.PlanCacheMisses.Inc()
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits++
	telemetry.PlanCacheHits.Inc()
	return en.parts, true
}

// store caches a freshly captured plan under key, evicting the
// least-recently-used plans beyond the size cap.
func (c *planCache) store(key string, epoch uint64, parts []hlop.Planned) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		en := el.Value.(*planEntry)
		en.epoch, en.parts = epoch, parts
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&planEntry{key: key, epoch: epoch, parts: parts})
	for len(c.entries) > c.max {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.entries, back.Value.(*planEntry).key)
		c.evictions++
		telemetry.PlanCacheEvictions.Inc()
	}
}

// PlanCacheStats is a point-in-time snapshot of the engine's plan cache.
type PlanCacheStats struct {
	// Hits counts VOP plannings served by replaying a cached plan.
	Hits uint64
	// Misses counts plannings that ran partition+assign from scratch
	// (invalidations are also misses).
	Misses uint64
	// Evictions counts plans dropped by the LRU size cap.
	Evictions uint64
	// Invalidations counts plans dropped because the device-health epoch
	// moved between capture and lookup.
	Invalidations uint64
	// Entries is the current cache population.
	Entries int
}

// PlanCacheStats returns the engine's plan-cache counters; zero when the
// cache is disabled.
func (e *Engine) PlanCacheStats() PlanCacheStats {
	e.pcMu.Lock()
	pc := e.pc
	e.pcMu.Unlock()
	if pc == nil {
		return PlanCacheStats{}
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return PlanCacheStats{
		Hits:          pc.hits,
		Misses:        pc.misses,
		Evictions:     pc.evictions,
		Invalidations: pc.invalidations,
		Entries:       len(pc.entries),
	}
}

// planCache lazily builds the engine's cache; nil when disabled
// (PlanCacheEntries ≤ 0, the core-level default).
func (e *Engine) planCache() *planCache {
	if e.PlanCacheEntries <= 0 {
		return nil
	}
	e.pcMu.Lock()
	defer e.pcMu.Unlock()
	if e.pc == nil {
		e.pc = newPlanCache(e.PlanCacheEntries)
	}
	return e.pc
}

// appendPlanKey appends to b the fingerprint of everything a captured plan
// is a function of, except input data and device health (the epoch guards
// the latter). The policy contributes its Name — which names its parts
// (assignment × sampling for QAWS) — and the engine seed that drives its
// randomized sampling; an Engine's policy parameters are fixed for its
// lifetime, like its registry. The key is built on every cache consult, into
// the round's reused buffer with strconv appends, so a warm lookup allocates
// nothing.
func (e *Engine) appendPlanKey(b []byte, v *vop.VOP, pol sched.Policy) []byte {
	b = strconv.AppendInt(b, int64(v.Op), 10)
	b = append(b, '|')
	b = append(b, pol.Name...)
	b = append(b, '|')
	b = strconv.AppendInt(b, e.Seed, 10)
	for _, in := range v.Inputs {
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(in.Rows), 10)
		b = append(b, 'x')
		b = strconv.AppendInt(b, int64(in.Cols), 10)
	}
	b = append(b, '|', 's')
	b = strconv.AppendInt(b, int64(e.Spec.TargetPartitions), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(e.Spec.MinVectorElems), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(e.Spec.MinTile), 10)
	b = append(b, '|', 'p')
	b = strconv.AppendFloat(b, v.DeadlinePressure, 'g', -1, 64)
	if len(v.Attrs) > 0 {
		var buf [8]string
		names := buf[:0]
		for name := range v.Attrs {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			b = append(b, '|', 'a')
			b = append(b, name...)
			b = append(b, '=')
			b = strconv.AppendFloat(b, v.Attrs[name], 'g', -1, 64)
		}
	}
	return b
}

// planVOP produces the HLOPs and scheduling overhead for one VOP: it replays
// a cached plan captured in the current device-health epoch when one exists,
// and plans from scratch (then caches the outcome) otherwise. A replay
// charges zero scheduling overhead — that is the point. Under an adaptive
// row a fresh plan is priced first (price.go), and the one-device branch
// samples nothing and charges nothing; the captured plan keeps the branch.
// The partition phase span is observed here (rt is nil for a multi-VOP
// batch, whose planning is one lumped schedule phase); the caller observes
// the schedule phase.
func (r *round) planVOP(pol sched.Policy, v *vop.VOP, rt *runTel, phaseT float64) ([]*hlop.HLOP, float64, float64, error) {
	e, ctx := r.e, &r.ctx
	pc := e.planCache()
	var epoch uint64
	if pc != nil {
		epoch = e.planEpoch.Load()
		r.key = e.appendPlanKey(r.key[:0], v, pol)
		if parts, ok := pc.lookup(r.key, epoch); ok {
			hs, err := hlop.Replay(v, parts)
			if err == nil {
				if rt != nil {
					phaseT = rt.phase(telemetry.PhasePartition, phaseT)
				}
				return hs, 0, phaseT, nil
			}
			// The key pins opcode, shapes and Spec, so a replay cannot
			// normally fail; if it somehow does, fall through and re-plan.
		}
	}
	hs, err := hlop.Partition(v, e.Spec)
	if err != nil {
		return nil, 0, phaseT, err
	}
	if rt != nil {
		phaseT = rt.phase(telemetry.PhasePartition, phaseT)
	}
	var p pricing
	if pol.Adaptive {
		p = e.price(ctx, pol, v, hs, pc != nil)
	}
	var overhead float64
	if p.oneDevice {
		assignOneDevice(p.device, hs)
	} else if overhead, err = pol.Assign(ctx, hs); err != nil {
		return nil, 0, phaseT, err
	}
	if pc != nil {
		pc.store(string(r.key), epoch, hlop.Capture(hs))
	}
	return hs, overhead, phaseT, nil
}
