package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"shmt/internal/device"
	"shmt/internal/hlop"
	"shmt/internal/telemetry"
)

// runConcurrent is the goroutine pick loop: one worker per device drains its
// TaskQueue — the paper's "thread monitoring the queue will work with the
// target device's kernel module and execute the HLOP implementation whenever
// the device is available" (§3.3.1). Idle workers steal from the most-loaded
// permitted victim, and every worker computes an HLOP as soon as it has
// admitted it. Virtual time is still used for cost accounting (each worker
// owns its device's lane), but scheduling order is decided by real
// concurrent execution, so this loop validates that the step's invariants do
// not depend on the deterministic event ordering.
func (r *round) runConcurrent(hs []*hlop.HLOP) error {
	n := len(r.devs)
	skips := make([]bool, n*n)
	for i := range r.devs {
		d := &r.devs[i]
		d.tq = device.NewTaskQueue[*hlop.HLOP]()
		if r.rt != nil {
			d.tq.Instrument(r.rt.depth[i], r.rt.wait[i])
		}
		d.etc = device.NewExecTimeCacheSized(r.e.ExecTimeCacheEntries) // per worker: the cache is not concurrency-safe
		d.skip = skips[i*n : (i+1)*n]
	}
	for _, h := range hs {
		r.devs[h.AssignedQueue].push(h)
	}

	// failed holds the first terminal error and makes it terminal for every
	// worker. Draining the queues alone is not enough: a worker holding a
	// popped-but-unfinished HLOP keeps outstanding above zero after the
	// queues empty, and the surviving workers would spin on it forever.
	var failed atomic.Pointer[error]
	var wg sync.WaitGroup
	for i := range r.devs {
		wg.Add(1)
		go func(d *devState) {
			defer wg.Done()
			for r.outstanding.Load() > 0 && failed.Load() == nil {
				h, victim := r.obtainConcurrent(d)
				if h == nil {
					runtime.Gosched()
					continue
				}
				dn, admitted, err := r.admit(d, victim, h)
				if admitted {
					err = r.compute(dn)
				}
				if err != nil {
					first := err // only the failing iteration's error moves to the heap
					failed.CompareAndSwap(nil, &first)
					return
				}
			}
		}(&r.devs[i])
	}
	wg.Wait()
	if err := failed.Load(); err != nil {
		return *err
	}
	return nil
}

// obtainConcurrent pops from the worker's own queue, then steals from the
// deepest permitted victim. The second return is the victim queue index for
// a stolen HLOP, -1 when the worker's own queue supplied the work. A
// quarantined worker serves only its own queue: whatever the open-time
// redistribution could not place stays behind as probe fodder, so no HLOP is
// ever stranded.
func (r *round) obtainConcurrent(d *devState) (*hlop.HLOP, int) {
	if h, ok := d.tq.Pop(); ok {
		return h, -1
	}
	if !r.pol.StealingEnabled() || d.br.quarantined() {
		return nil, -1
	}
	telemetry.StealAttempts.Inc()
	clear(d.skip)
	for {
		best, depth := -1, 0
		for vq := range r.devs {
			if vq == d.qi || d.skip[vq] || !r.ctx.StealableVictim(vq) {
				continue
			}
			if l := r.devs[vq].tq.Pending(); l > depth {
				best, depth = vq, l
			}
		}
		if best < 0 {
			return nil, -1
		}
		// The policy is asked about the tail under the victim's queue lock, so
		// a forbidden item never leaves the queue — a breaker-open drain racing
		// with this thief sees the whole backlog. A refused victim, or one the
		// other workers emptied since the depth scan, is skipped for the rest
		// of this attempt.
		h, ok := r.devs[best].tq.StealIf(func(h *hlop.HLOP) bool {
			if r.pol.CanSteal(r.ctx, d.qi, best, h) && r.ctx.StealableVictim(best) {
				return true
			}
			telemetry.StealRejected.Inc()
			return false
		})
		if ok {
			return h, best
		}
		d.skip[best] = true
	}
}
