// Package parallel provides the host-side execution pool the SHMT runtime
// uses to keep every core of the *host* machine busy while the virtual-time
// cost model keeps describing the simulated platform. The two layers are
// deliberately independent: virtual time is computed from the calibrated
// device models and never observes host concurrency, while the actual kernel
// arithmetic fans out over a bounded worker pool.
//
// Determinism contract: For splits [0, n) into fixed chunks derived only
// from n and grain — never from the worker count or from scheduling order —
// and every chunk writes a disjoint output range. A kernel whose sequential
// loop is independent per element (or per row) therefore produces
// bit-identical results with 1, 2, or GOMAXPROCS workers; the property
// tests in internal/kernels assert exactly that.
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
// saturated (e.g. every pooled HLOP of a round fans its kernel out at once),
// For degrades to running every chunk on the calling goroutine, and
// while waiting for submitted helpers For drains the task queue itself, so
// nested or concurrent use cannot deadlock (a For inside a pool task would
// otherwise wait forever on helpers queued behind its own worker).
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
// captures anything is a heap allocation per call; a hot fan-out site uses
// Pooled instead.
func For(n, grain int, fn func(lo, hi int)) { forBody(n, grain, funcBody(fn)) }

// body is what a parallel loop runs per chunk.
type body interface{ run(lo, hi int) }

// funcBody adapts For's function to body; a func value is pointer-shaped, so
// the conversion boxes nothing.
type funcBody func(lo, hi int)

func (f funcBody) run(lo, hi int) { f(lo, hi) }

// Pooled is one fan-out site whose chunks read their operands from an A
// instead of a closure: For copies the operands into a loop body drawn from
// the site's free list and runs fn(&args, lo, hi) per chunk, so a warm call
// allocates nothing. Declare one package-level Pooled per operand type; fn
// should be a top-level function, which as a func value is static.
type Pooled[A any] struct{ bodies tensor.Spares[*pooledBody[A]] }

// pooledBody is a Pooled site's loop body: the operands and the function
// that reads them.
type pooledBody[A any] struct {
	args A
	fn   func(a *A, lo, hi int)
}

func (b *pooledBody[A]) run(lo, hi int) { b.fn(&b.args, lo, hi) }

// For runs fn(&args, lo, hi) over [0, n) in exactly the chunks For(n, grain,
// …) would. The body goes back to the free list once every chunk has run;
// one whose chunk panicked is dropped.
func (p *Pooled[A]) For(n, grain int, args A, fn func(a *A, lo, hi int)) {
	b := p.bodies.Get()
	if b == nil {
		b = new(pooledBody[A])
	}
	b.args, b.fn = args, fn
	forBody(n, grain, b)
	*b = pooledBody[A]{} // drop the operands: the list must not pin tensors
	p.bodies.Put(b)
}

func forBody(n, grain int, b body) {
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
			hi := lo + grain
			if hi > n {
				hi = n
			}
			b.run(lo, hi)
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
	j.n, j.grain, j.chunks, j.body = n, grain, chunks, b
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
	// (nested For, e.g. a kernel inside a pooled HLOP), or when every
	// worker is blocked in this same wait, the queue has no one to drain it
	// and a plain WaitGroup.Wait deadlocks. Executing queued tasks here
	// breaks that cycle — our own helpers run inline (and find the chunk
	// counter drained, exiting immediately), and foreign tasks make forward
	// progress for whoever is waiting on them. Tasks never block except in
	// this same helping wait, so the recursion terminates.
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
	j.body = nil
	jobs.Put(j)
}

// jobs recycles forJobs across parallel calls.
var jobs tensor.Spares[*forJob]

// forJob is the state one parallel For call shares with its helpers.
type forJob struct {
	n, grain, chunks int
	body             body
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
	// not per chunk, so the enabled cost stays off the inner loop. A worker is
	// busy once: when a chunk of an enclosing For is already open on this
	// goroutine (a kernel's For inside a pooled HLOP), that frame's interval
	// covers this one and only the chunks are counted.
	var t0 time.Time
	var done int64
	counting := telemetry.On()
	if counting && !reentered() {
		t0 = time.Now()
	}
	defer func() {
		if counting {
			telemetry.WorkerChunks.Add(done)
		}
		if !t0.IsZero() {
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
		j.body.run(lo, hi)
		done++
	}
}

// reentered reports whether the function calling it already has a frame
// further up this goroutine's stack. Go has no goroutine-local storage to
// keep a nesting depth in; the stack is the one thing that is per goroutine.
// A nested For is at most a kernel's call chain below the chunk that called
// it, so 32 frames reach the enclosing frame whenever there is one.
//
//go:noinline
func reentered() bool {
	var pcs [32]uintptr
	n := runtime.Callers(2, pcs[:]) // pcs[0] is in the calling function
	if n == 0 {
		return false
	}
	self := runtime.FuncForPC(pcs[0] - 1).Entry()
	for _, pc := range pcs[1:n] {
		if runtime.FuncForPC(pc-1).Entry() == self {
			return true
		}
	}
	return false
}

// targetChunkElems is the per-chunk work For aims at when a caller sizes
// grains from an element count: large enough to amortize chunk claiming,
// small enough to balance uneven rows.
const targetChunkElems = 1 << 15

// RowGrain returns the For grain (in rows) for a rows×cols sweep: enough
// rows per chunk to cover ~targetChunkElems elements. Deterministic in the
// shape alone.
func RowGrain(cols int) int {
	if cols < 1 {
		cols = 1
	}
	g := targetChunkElems / cols
	if g < 1 {
		g = 1
	}
	return g
}
