package core

import (
	"slices"
	"sync"

	"shmt/internal/device"
	"shmt/internal/hlop"
	"shmt/internal/parallel"
	"shmt/internal/telemetry"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// prefetcher is the wall-clock half of double-buffered HLOP pipelining, for
// every device that casts its operands (device.Prestager). It has two jobs.
//
// The resident shared-operand cache (wantsStaged / stageSet / residentFor)
// serves both pick loops and every casting device: an operand several HLOPs
// of a round share (a GEMM right-hand matrix, a convolution kernel) is cast
// once per device — quantized for the TPU, rounded to FP32 for the GPU — and
// kept resident for every consumer, instead of being re-cast per HLOP.
//
// Asynchronous prestaging (issue / take / cancel) serves private-memory
// devices under the concurrent loop only: while HLOP k executes, HLOP k+1's
// operands are materialized and quantized on internal/parallel's worker
// pool (so it needs no goroutines of its own and can never deadlock against
// kernel fan-out), bounded to Engine.Prefetch staged-ahead HLOPs per device.
// The deterministic loop puts whole HLOPs on the pool, which overlaps
// staging with kernels by itself; see round.admit for why an asynchronous
// job there could deadlock on itself.
//
// Two rules keep results bit-identical with prefetch off:
//
//   - staging goes through the exact dispatch path (a Prestager's Compute is
//     StageInput on each operand, then ExecuteStaged), and
//   - a staged set is only consumed by the device it was staged for — a
//     steal or reroute that moves the HLOP cancels the prestage instead.
type prefetcher struct {
	depth int

	mu       sync.Mutex
	jobs     map[*hlop.HLOP]*prestageJob
	inflight []int // async jobs outstanding per queue index
	shared   map[*tensor.Matrix]bool
	resident map[residentKey]*tensor.Matrix
	resBytes int64
}

// prestageJob is one in-flight asynchronous staging of an HLOP's operands.
type prestageJob struct {
	qi   int // queue index the set was staged for
	done chan struct{}
	st   *device.Staged
}

// residentKey identifies a device-resident shared operand: the same matrix
// staged for a different device or opcode quantizes differently, so both
// are part of the key.
type residentKey struct {
	qi int
	op vop.Opcode
	in *tensor.Matrix
}

// newPrefetcher returns the run's prefetcher, or nil when Engine.Prefetch
// disables it. hs is scanned for operands shared across HLOPs — only those
// are worth keeping device-resident.
func (e *Engine) newPrefetcher(hs []*hlop.HLOP) *prefetcher {
	if e.Prefetch <= 0 {
		return nil
	}
	seen := make(map[*tensor.Matrix]int)
	for _, h := range hs {
		for _, in := range h.Inputs {
			seen[in]++
		}
	}
	shared := make(map[*tensor.Matrix]bool)
	for in, n := range seen {
		if n > 1 {
			shared[in] = true
		}
	}
	return &prefetcher{
		depth:    e.Prefetch,
		jobs:     make(map[*hlop.HLOP]*prestageJob),
		inflight: make([]int, e.Reg.Len()),
		shared:   shared,
		resident: make(map[residentKey]*tensor.Matrix),
	}
}

// peekDepth is how many queue-head HLOPs the engines offer to issue; 0 when
// prefetch is off (nil-safe).
func (pf *prefetcher) peekDepth() int {
	if pf == nil {
		return 0
	}
	return pf.depth
}

// issue starts staging h's operands for the device at queue index qi, if the
// device stages into private memory (a shared-memory cast is part of the
// HLOP's own compute; there is no transfer to run ahead of), the per-device
// depth allows it, and the operand set fits device memory (oversized HLOPs
// are left for the dispatch path, whose ErrTooLarge drives the split logic).
// Idempotent per HLOP. Nil-safe.
func (pf *prefetcher) issue(qi int, dev device.Device, h *hlop.HLOP) {
	if pf == nil {
		return
	}
	ps, ok := dev.(device.Prestager)
	if !ok || dev.MemoryBytes() == 0 {
		return
	}
	pf.mu.Lock()
	if _, dup := pf.jobs[h]; dup || pf.inflight[qi] >= pf.depth || !ps.CanStage(h.Op, h.Inputs) {
		pf.mu.Unlock()
		return
	}
	job := &prestageJob{qi: qi, done: make(chan struct{})}
	pf.jobs[h] = job
	pf.inflight[qi]++
	pf.mu.Unlock()

	telemetry.PrefetchIssued.Inc()
	run := func() {
		job.st = pf.stageSet(ps, qi, h)
		telemetry.PrefetchBufferBytes.Add(job.st.Bytes)
		close(job.done)
	}
	if !parallel.Try(run) {
		run() // pool saturated: stage on the caller, the set is still reusable
	}
}

// stageSet stages every operand of h for the device at qi: shared operands
// come from (or populate) the resident cache, the rest are staged fresh and
// owned by the returned set.
func (pf *prefetcher) stageSet(ps device.Prestager, qi int, h *hlop.HLOP) *device.Staged {
	st := device.NewStaged(len(h.Inputs))
	for i, in := range h.Inputs {
		if pf.isShared(in) {
			st.Inputs[i] = pf.residentFor(ps, qi, h.Op, in)
			st.Keep[i] = true
			continue
		}
		b := ps.StageInput(h.Op, in)
		st.Inputs[i] = b
		st.Bytes += b.Bytes(tensor.ElemSize)
	}
	return st
}

func (pf *prefetcher) isShared(in *tensor.Matrix) bool {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	return pf.shared[in]
}

// wantsStaged reports whether the synchronous dispatch path should stage h
// through the prefetcher anyway: true when a shared operand is resident (or
// residentable), so consecutive HLOPs reuse one staging instead of
// re-quantizing it each. Nil-safe.
func (pf *prefetcher) wantsStaged(h *hlop.HLOP) bool {
	if pf == nil {
		return false
	}
	pf.mu.Lock()
	defer pf.mu.Unlock()
	for _, in := range h.Inputs {
		if pf.shared[in] {
			return true
		}
	}
	return false
}

// warm casts the shared operands the admitted HLOPs are about to ask the
// resident cache for, one pool task per (device, operand), so that the
// compute fan-out that follows only ever hits: each is cast exactly once per
// device and round, where simultaneous first uses would each cast a copy and
// throw all but one away. Nil-safe.
func (pf *prefetcher) warm(r *round) {
	if pf == nil || len(pf.shared) == 0 {
		return
	}
	var keys []residentKey
	for _, d := range r.done {
		if _, ok := r.devs[d.h.ExecQueue].dev.(device.Prestager); !ok {
			continue
		}
		for _, in := range d.h.Inputs {
			key := residentKey{qi: d.h.ExecQueue, op: d.h.Op, in: in}
			if pf.shared[in] && !slices.Contains(keys, key) {
				keys = append(keys, key)
			}
		}
	}
	parallel.For(len(keys), 1, func(lo, hi int) {
		for _, k := range keys[lo:hi] {
			pf.residentFor(r.devs[k.qi].dev.(device.Prestager), k.qi, k.op, k.in)
		}
	})
}

// residentFor returns the device-resident staging of a shared operand,
// staging and installing it on first use. Concurrent first uses (the
// concurrent loop's prestage jobs) may stage twice; the loser's copy is
// released and the winner is shared.
func (pf *prefetcher) residentFor(ps device.Prestager, qi int, op vop.Opcode, in *tensor.Matrix) *tensor.Matrix {
	key := residentKey{qi: qi, op: op, in: in}
	pf.mu.Lock()
	if m, ok := pf.resident[key]; ok {
		pf.mu.Unlock()
		return m
	}
	pf.mu.Unlock()
	m := ps.StageInput(op, in)
	pf.mu.Lock()
	if winner, ok := pf.resident[key]; ok {
		pf.mu.Unlock()
		tensor.PutMatrix(m)
		return winner
	}
	pf.resident[key] = m
	b := m.Bytes(tensor.ElemSize)
	pf.resBytes += b
	pf.mu.Unlock()
	telemetry.PrefetchBufferBytes.Add(b)
	return m
}

// claim removes h's prestage job, if any, waits for an in-flight staging to
// finish (staging is short and arena buffers must not leak) and settles the
// depth and buffer accounting; the caller consumes or releases the staged
// set. Nil-safe; nil when h has no prestage.
func (pf *prefetcher) claim(h *hlop.HLOP) *prestageJob {
	if pf == nil {
		return nil
	}
	pf.mu.Lock()
	job, ok := pf.jobs[h]
	if !ok {
		pf.mu.Unlock()
		return nil
	}
	delete(pf.jobs, h)
	pf.mu.Unlock()
	<-job.done
	pf.mu.Lock()
	pf.inflight[job.qi]--
	pf.mu.Unlock()
	telemetry.PrefetchBufferBytes.Add(-job.st.Bytes)
	return job
}

// take claims h's prestaged operand set for the device at queue index qi.
// It returns nil on a miss; a set staged for a different device — the HLOP
// was stolen or rerouted after the prestage was issued — is cancelled and
// released, since the new device quantizes (or doesn't) differently.
func (pf *prefetcher) take(qi int, h *hlop.HLOP) *device.Staged {
	job := pf.claim(h)
	if job == nil {
		return nil
	}
	if job.qi != qi {
		job.st.Release()
		telemetry.PrefetchCancelled.Inc()
		return nil
	}
	telemetry.PrefetchHits.Inc()
	return job.st
}

// cancel invalidates h's prestage, if any: a breaker-open redistribution or
// failure reroute moved the HLOP, so the staged set will never be consumed
// where it was staged.
func (pf *prefetcher) cancel(h *hlop.HLOP) {
	if job := pf.claim(h); job != nil {
		job.st.Release()
		telemetry.PrefetchCancelled.Inc()
	}
}

// drain releases every unconsumed prestage and the resident-operand cache.
// Called once when the run loop exits, before aggregation releases the
// HLOP result buffers. Nil-safe.
func (pf *prefetcher) drain() {
	if pf == nil {
		return
	}
	pf.mu.Lock()
	jobs := pf.jobs
	pf.jobs = make(map[*hlop.HLOP]*prestageJob)
	pf.mu.Unlock()
	for _, job := range jobs {
		<-job.done
		telemetry.PrefetchBufferBytes.Add(-job.st.Bytes)
		job.st.Release()
		telemetry.PrefetchCancelled.Inc()
	}
	pf.mu.Lock()
	resident := pf.resident
	resBytes := pf.resBytes
	pf.resident = make(map[residentKey]*tensor.Matrix)
	pf.resBytes = 0
	pf.mu.Unlock()
	for _, m := range resident {
		tensor.PutMatrix(m)
	}
	telemetry.PrefetchBufferBytes.Add(-resBytes)
}

// executeHLOP computes h, which dev admitted under t, consuming a prestaged
// operand set when one is ready for this device, staging through the
// resident-operand cache when a shared operand makes that worthwhile, and
// falling back to the device's plain compute half otherwise. All three paths
// are bit-identical by construction (see device.Prestager).
func (e *Engine) executeHLOP(pf *prefetcher, qi int, dev device.Device, h *hlop.HLOP, t device.Ticket) (*tensor.Matrix, error) {
	if st := pf.take(qi, h); st != nil {
		// take only returns sets staged for this queue's device, which
		// therefore implements Prestager.
		return dev.(device.Prestager).ExecuteStaged(h.Op, st, h.Out, h.Attrs)
	}
	if pf.wantsStaged(h) {
		// Admission already established that the operand set fits.
		if ps, ok := dev.(device.Prestager); ok {
			return ps.ExecuteStaged(h.Op, pf.stageSet(ps, qi, h), h.Out, h.Attrs)
		}
	}
	return dev.Compute(t, h.Op, h.Inputs, h.Out, h.Attrs)
}
