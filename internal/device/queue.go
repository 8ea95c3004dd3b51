package device

import (
	"sync"
	"time"

	"shmt/internal/telemetry"
)

// TaskQueue is the incoming queue the SHMT kernel driver maintains per
// hardware resource (§3.3: "a pair of queues for each SHMT-compatible
// hardware resource; one serves as the incoming queue and the other as the
// completion queue" — the completion side is the round's done list in
// internal/core, which every device appends to in completion order).
//
// It is a mutex-guarded deque rather than a channel because work stealing
// needs to remove items from the *tail* of a victim's queue while the owner
// pops from the head, and the scheduler needs to observe queue depths.
//
// Instrument attaches optional telemetry: a depth gauge updated on every
// push/pop and a wall-clock residency histogram (Push → Pop/Steal wait
// time). Uninstrumented queues carry no extra cost.
type TaskQueue[T any] struct {
	mu       sync.Mutex
	incoming []T
	enqueued []int64 // per-item Push wall ns, parallel to incoming; nil unless wait != nil

	depth *telemetry.Gauge
	wait  *telemetry.Histogram
}

// NewTaskQueue returns an empty queue.
func NewTaskQueue[T any]() *TaskQueue[T] { return &TaskQueue[T]{} }

// Instrument attaches a depth gauge and/or wait-time histogram. Call before
// the queue is shared between goroutines.
func (q *TaskQueue[T]) Instrument(depth *telemetry.Gauge, wait *telemetry.Histogram) {
	q.depth = depth
	q.wait = wait
}

func (q *TaskQueue[T]) noteDepthLocked() {
	if q.depth != nil {
		q.depth.Set(int64(len(q.incoming)))
	}
}

// Push appends a task to the incoming queue.
func (q *TaskQueue[T]) Push(t T) {
	q.mu.Lock()
	q.incoming = append(q.incoming, t)
	if q.wait != nil {
		q.enqueued = append(q.enqueued, time.Now().UnixNano())
	}
	q.noteDepthLocked()
	q.mu.Unlock()
}

// PushFront prepends a task (used when re-queueing after a failure so the
// task keeps its priority). The shift reuses the slice's backing array via
// append+copy instead of allocating a fresh slice on every call.
func (q *TaskQueue[T]) PushFront(t T) {
	q.mu.Lock()
	var zero T
	q.incoming = append(q.incoming, zero)
	copy(q.incoming[1:], q.incoming)
	q.incoming[0] = t
	if q.wait != nil {
		q.enqueued = append(q.enqueued, 0)
		copy(q.enqueued[1:], q.enqueued)
		q.enqueued[0] = time.Now().UnixNano()
	}
	q.noteDepthLocked()
	q.mu.Unlock()
}

// observeWaitLocked records the residency of the item enqueued at index i.
// The caller removes the timestamp by mirroring its incoming-slice edit
// (head advance on Pop, tail truncation on Steal), so the bookkeeping stays
// O(1) under the queue lock — no mid-slice deletes.
func (q *TaskQueue[T]) observeWaitLocked(i int) {
	if q.wait == nil || i >= len(q.enqueued) {
		return
	}
	q.wait.Observe(float64(time.Now().UnixNano()-q.enqueued[i]) / 1e9)
}

// Pop removes the head of the incoming queue (owner side).
func (q *TaskQueue[T]) Pop() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var zero T
	if len(q.incoming) == 0 {
		return zero, false
	}
	t := q.incoming[0]
	q.observeWaitLocked(0)
	q.incoming = q.incoming[1:]
	if len(q.enqueued) > 0 {
		q.enqueued = q.enqueued[1:]
	}
	q.noteDepthLocked()
	return t, true
}

// StealIf removes the tail of the incoming queue if may accepts it (thief
// side). The policy check and the removal are one critical section: a tail
// the thief may not take never leaves the queue, so a concurrent
// DrainPending sees every pending item. may runs under the queue lock and
// must not touch the queue.
func (q *TaskQueue[T]) StealIf(may func(T) bool) (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var zero T
	if len(q.incoming) == 0 {
		return zero, false
	}
	last := len(q.incoming) - 1
	t := q.incoming[last]
	if !may(t) {
		return zero, false
	}
	q.observeWaitLocked(last)
	q.incoming = q.incoming[:last]
	if len(q.enqueued) > last {
		q.enqueued = q.enqueued[:last]
	}
	q.noteDepthLocked()
	return t, true
}

// DrainPending empties and returns the incoming queue in order. The engines
// use it when a device's circuit breaker opens: the quarantined device's
// backlog is redistributed to healthy queues instead of waiting out the
// cooldown.
func (q *TaskQueue[T]) DrainPending() []T {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := q.incoming
	q.incoming = nil
	q.enqueued = nil
	q.noteDepthLocked()
	return out
}

// Peek returns up to n head items of the incoming queue without removing
// them. The input prefetcher reads ahead of the owner's Pop with it; the
// copy means a racing Pop/Steal invalidates the snapshot, not the caller's
// slice.
func (q *TaskQueue[T]) Peek(n int) []T {
	q.mu.Lock()
	defer q.mu.Unlock()
	if n > len(q.incoming) {
		n = len(q.incoming)
	}
	if n <= 0 {
		return nil
	}
	return append([]T(nil), q.incoming[:n]...)
}

// Pending returns the incoming-queue depth, the signal the paper's stealing
// trigger reads ("the incoming queue of a hardware device has more pending
// items than others").
func (q *TaskQueue[T]) Pending() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.incoming)
}
