// Package parallel provides the host-side execution pool the SHMT runtime
// uses to keep every core of the *host* machine busy while the virtual-time
// cost model keeps describing the simulated platform. The two layers are
// deliberately independent: virtual time is computed from the calibrated
// device models and never observes host concurrency, while the admitted
// HLOPs of a round run as the pool's tasks. There is one level of host
// parallelism: a task's kernel is a plain loop.
//
// Determinism contract: For splits [0, n) into fixed chunks derived only
// from n and grain — never from the worker count or from scheduling order —
// and every chunk writes a disjoint output range, so a round computes the
// same bits with 1, 2, or GOMAXPROCS workers; the property tests in
// internal/core assert exactly that.
package parallel

import (
	"context"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"shmt/internal/telemetry"
	"shmt/internal/tensor"
)

// workers is the fan-out width For reads on every call: GOMAXPROCS, or the
// SHMT_WORKERS environment variable when set — the one way to set it. Tests
// change it with SetWorkers.
var workers atomic.Int64

func init() {
	n := runtime.GOMAXPROCS(0)
	if s := os.Getenv("SHMT_WORKERS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	workers.Store(int64(max(n, 1)))
}

// Workers returns the current fan-out width.
func Workers() int { return int(workers.Load()) }

// SetWorkers sets the fan-out width (clamped to ≥ 1) and returns the
// previous one, so tests can save and restore it.
func SetWorkers(n int) int {
	return int(workers.Swap(int64(max(n, 1))))
}

// The pool: GOMAXPROCS long-lived helper goroutines fed through a bounded
// channel. Helpers are an accelerator, never a dependency — if the pool is
// saturated (several sessions computing rounds at once), For degrades to
// running every chunk on the calling goroutine, and while waiting for
// submitted helpers For drains the task queue itself, so concurrent or nested
// use cannot deadlock.
var (
	poolOnce sync.Once
	tasks    chan func()
)

func startPool() {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	tasks = make(chan func(), 4*n)
	for i := 0; i < n; i++ {
		id := strconv.Itoa(i)
		go pprof.Do(context.Background(),
			pprof.Labels("shmt", "pool-worker", "shmt_worker", id),
			func(context.Context) {
				for f := range tasks {
					f()
				}
			})
	}
}

// submit hands f to a pool helper if one can accept it without blocking.
func submit(f func()) bool {
	poolOnce.Do(startPool)
	select {
	case tasks <- f:
		return true
	default:
		return false
	}
}

// For runs fn over [0, n) split into chunks of grain elements (the last
// chunk may be shorter). Chunk boundaries depend only on n and grain, and
// chunks are claimed from an atomic counter, so the set of (lo, hi) calls is
// identical for every worker count — only their interleaving varies. fn must
// treat [lo, hi) as its exclusive output range.
//
// With one worker the same chunks run in order on the calling goroutine;
// that is the "sequential path" the determinism contract is stated against.
// A panic in any chunk is re-raised on the caller.
//
// fn is stored where the pool's helpers can reach it, so a closure that
// captures anything is a heap allocation per call; a hot caller passes a
// method value it bound once.
func For(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	w := Workers()
	if w > chunks {
		w = chunks
	}
	if w <= 1 {
		// Sequential path: same chunk sequence, in order, on the caller.
		for lo := 0; lo < n; lo += grain {
			fn(lo, min(lo+grain, n))
		}
		return
	}

	// The call's shared state comes from a free list, with its helper method
	// value bound once when the job was made, so a warm parallel call
	// allocates nothing however wide it fans out.
	j := jobs.Get()
	if j == nil {
		j = new(forJob)
		j.help = j.runHelper
	}
	j.n, j.grain, j.chunks, j.fn = n, grain, chunks, fn
	j.next.Store(0)
	for i := 1; i < w; i++ {
		j.pending.Add(1)
		if !submit(j.help) {
			j.pending.Add(-1)
			break // pool saturated: the caller drains the counter alone
		}
	}
	j.work()
	// Wait for the submitted helpers — by helping. A helper that is still
	// queued may never start on its own: when this caller *is* a pool worker
	// (a For inside a pool task), or when every worker is blocked in this
	// same wait, the queue has no one to drain it and a plain WaitGroup.Wait
	// deadlocks. Executing queued tasks here breaks that cycle — our own
	// helpers run inline (and find the chunk counter drained, exiting
	// immediately), and foreign tasks make forward progress for whoever is
	// waiting on them. Tasks never block except in this same helping wait,
	// so the recursion terminates.
	for j.pending.Load() > 0 {
		select {
		case f := <-tasks:
			f()
		default:
			// Our helpers are running on real workers; let them finish.
			runtime.Gosched()
		}
	}
	// Every helper has finished with j (pending counts them until their
	// last access), so it may serve another call — unless a chunk panicked:
	// that job keeps its panic state and is never reused.
	if j.panicked.Load() {
		panic(j.panicVal)
	}
	j.fn = nil
	jobs.Put(j)
}

// jobs recycles forJobs across parallel calls.
var jobs tensor.Spares[*forJob]

// forJob is the state one parallel For call shares with its helpers.
type forJob struct {
	n, grain, chunks int
	fn               func(lo, hi int)
	help             func() // j.runHelper, bound once per job

	next      atomic.Int64 // next unclaimed chunk
	pending   atomic.Int64 // helpers submitted and not yet finished
	panicked  atomic.Bool
	panicOnce sync.Once
	panicVal  any
}

// runHelper is a submitted helper: it drains chunks like the caller does.
func (j *forJob) runHelper() {
	defer j.pending.Add(-1)
	j.work()
}

// work claims and runs chunks until none are left.
func (j *forJob) work() {
	// Worker-utilization accounting: one timestamp pair per drained worker,
	// not per chunk, so the enabled cost stays off the inner loop.
	var t0 time.Time
	var done int64
	counting := telemetry.On()
	if counting {
		t0 = time.Now()
	}
	defer func() {
		if counting {
			telemetry.WorkerChunks.Add(done)
			telemetry.WorkerBusyNanos.Add(time.Since(t0).Nanoseconds())
		}
		if r := recover(); r != nil {
			j.panicOnce.Do(func() {
				j.panicVal = r
				j.panicked.Store(true)
			})
		}
	}()
	for {
		c := int(j.next.Add(1)) - 1
		if c >= j.chunks || j.panicked.Load() {
			return
		}
		lo := c * j.grain
		hi := min(lo+j.grain, j.n)
		j.fn(lo, hi)
		done++
	}
}
