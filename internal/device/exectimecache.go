package device

import (
	"shmt/internal/telemetry"
	"shmt/internal/vop"
)

// ExecTimeCache memoizes Device.ExecTime lookups. The cost model is a pure
// function of (device, opcode, element count), but the pick loop asks
// for the same triple O(devices²) times per step — every steal decision
// scores each victim's tail HLOP against both devices — so the engine keeps
// one cache per round (the cache is not safe for concurrent use; only the
// pick loop reads it) and hits the model once per distinct shape.
//
// Growth is capped: a long session streaming continually varying shapes
// (ExecuteBatch over ragged inputs) would otherwise grow the map without
// bound. On overflow the cache drops the whole map — an epoch flush keeps
// the common case (few distinct shapes, hit after hit) at zero bookkeeping
// cost, and a full rebuild is just a few thousand cost-model calls.
// Hit/miss/eviction totals feed the shmt_exec_cache_* telemetry counters.
type ExecTimeCache struct {
	m   map[execTimeKey]float64
	max int
}

// DefaultExecTimeEntries is the default memo size cap; beyond it the map is
// flushed. Tune per session via shmt.Config.ExecTimeCacheEntries.
const DefaultExecTimeEntries = 4096

type execTimeKey struct {
	dev   string
	op    vop.Opcode
	elems int
}

// NewExecTimeCache returns an empty cache with the default entry cap.
func NewExecTimeCache() *ExecTimeCache {
	return NewExecTimeCacheSized(DefaultExecTimeEntries)
}

// NewExecTimeCacheSized returns an empty cache flushed once it exceeds max
// entries; max ≤ 0 selects DefaultExecTimeEntries.
func NewExecTimeCacheSized(max int) *ExecTimeCache {
	if max <= 0 {
		max = DefaultExecTimeEntries
	}
	return &ExecTimeCache{m: make(map[execTimeKey]float64), max: max}
}

// ExecTime returns dev.ExecTime(op, elems), memoized.
func (c *ExecTimeCache) ExecTime(dev Device, op vop.Opcode, elems int) float64 {
	k := execTimeKey{dev.Name(), op, elems}
	if t, ok := c.m[k]; ok {
		telemetry.ExecCacheHits.Inc()
		return t
	}
	telemetry.ExecCacheMisses.Inc()
	t := dev.ExecTime(op, elems)
	if len(c.m) >= c.max {
		telemetry.ExecCacheEvictions.Add(int64(len(c.m)))
		c.m = make(map[execTimeKey]float64)
	}
	c.m[k] = t
	return t
}

// Len returns how many entries the cache currently holds.
func (c *ExecTimeCache) Len() int { return len(c.m) }
