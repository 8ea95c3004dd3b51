package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"shmt/internal/hlop"
	"shmt/internal/kernels"
	"shmt/internal/parallel"
	"shmt/internal/telemetry"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// aggregate merges completed HLOP results into the VOP's output tensor: the
// data-aggregation/synchronization step the runtime performs from the
// completion queues (§3.3.1). Reduction partials merge semantically. For
// every other opcode the caller supplies out (a new matrix, or the VOP's
// Dst) and, in view mode, binds each HLOP a strided view into it: results written through their view are
// already in place and only need release bookkeeping, while the rest —
// forced copies, halo interiors, private-memory devices that ignored the
// view — scatter back with strided copies fanned out over the host pool
// (each HLOP owns a disjoint output region, so the copies are race-free).
// It returns the output and the total bytes physically copied (for the
// host-time accounting; aliased results cost nothing).
//
// Aggregation is also where HLOP staging buffers die: each partition's
// result and its non-shared input blocks return to the tensor arena here, so
// the partition → execute → aggregate loop recycles its buffers instead of
// growing the heap. Inputs aliased from the parent VOP (views, GEMM's whole
// B matrix, the convolution kernel) stay untouched — PutMatrix refuses
// views, so releasing is safe either way.
func (r *round) aggregate(v *vop.VOP, done []doneHLOP, out *tensor.Matrix) (*tensor.Matrix, int64, error) {
	if len(done) == 0 {
		return nil, 0, fmt.Errorf("core: no completed HLOPs to aggregate")
	}
	if v.Op.IsReduction() {
		ordered := make([]doneHLOP, len(done))
		copy(ordered, done)
		sort.Slice(ordered, func(a, b int) bool { return ordered[a].h.ID < ordered[b].h.ID })
		partials := make([]*tensor.Matrix, len(ordered))
		var bytes int64
		for i, d := range ordered {
			partials[i] = d.h.Result
			bytes += d.h.Result.Bytes(tensor.ElemSize)
		}
		merged, err := kernels.MergePartials(v.Op, partials, v.Inputs[0].Len())
		if err != nil {
			return nil, 0, err
		}
		for _, d := range ordered {
			releaseHLOPBuffers(v, d.h)
		}
		return merged, bytes, nil
	}

	// Pass 1 (sequential, allocation-free): results that aliased the output
	// through their view are already in place — release bookkeeping only.
	aliased := 0
	var aliasedBytes int64
	for i := range done {
		h := done[i].h
		if h.Out != nil && h.Result == h.Out {
			aliasedBytes += h.Region.Bytes(tensor.ElemSize)
			releaseHLOPBuffers(v, h)
			aliased++
		}
	}
	if aliased > 0 {
		telemetry.DatapathBytesAliased.Add(aliasedBytes)
		telemetry.DatapathCopiesAvoided.Add(int64(aliased))
	}
	if aliased == len(done) {
		return out, 0, nil
	}
	// Pass 2: scatter everything that still lives in a private buffer.
	sc := &r.scatter
	sc.v, sc.done, sc.out = v, done, out
	parallel.For(len(done), 1, r.scatterFn)
	bytes, err := sc.bytes.Load(), sc.err
	sc.reset()
	if err != nil {
		return nil, 0, err
	}
	telemetry.DatapathBytesCopied.Add(bytes)
	return out, bytes, nil
}

// scatterPass is aggregation's pool fan-out over one VOP's private results:
// its operands, the bytes copied and the first failure.
type scatterPass struct {
	v     *vop.VOP
	done  []doneHLOP
	out   *tensor.Matrix
	bytes atomic.Int64
	mu    sync.Mutex // guards err
	err   error
}

// chunk scatters the results of done[lo:hi] into out.
func (sc *scatterPass) chunk(lo, hi int) {
	for x := lo; x < hi; x++ {
		h := sc.done[x].h
		if h.Result == nil {
			continue // aliased, handled in pass 1
		}
		block := h.Result
		if h.Op.Halo() > 0 {
			interior, err := tensor.CopyOut(block, h.Interior)
			if err != nil {
				sc.fail(fmt.Errorf("core: extracting interior of HLOP %d: %w", h.ID, err))
				continue
			}
			block = interior
		}
		err := tensor.CopyIn(sc.out, h.Region, block)
		if block != h.Result {
			tensor.PutMatrix(block)
		}
		if err != nil {
			sc.fail(fmt.Errorf("core: aggregating HLOP %d: %w", h.ID, err))
			continue
		}
		sc.bytes.Add(h.Region.Bytes(tensor.ElemSize))
		releaseHLOPBuffers(sc.v, h)
	}
}

// fail records err unless an earlier chunk failed first.
func (sc *scatterPass) fail(err error) {
	sc.mu.Lock()
	if sc.err == nil {
		sc.err = err
	}
	sc.mu.Unlock()
}

// reset drops the pass's operands and result.
func (sc *scatterPass) reset() {
	sc.v, sc.done, sc.out, sc.err = nil, nil, nil, nil
	sc.bytes.Store(0)
}

// releaseHLOPBuffers returns an aggregated HLOP's result and its private
// input blocks to the tensor arena. Inputs that alias the parent VOP's
// matrices are skipped; everything else was CopyOut-extracted for this HLOP
// alone and is dead once its region has been scattered.
func releaseHLOPBuffers(v *vop.VOP, h *hlop.HLOP) {
	tensor.PutMatrix(h.Result) // no-op when Result is the output view
	h.Result = nil
	h.Out = nil
	for _, in := range h.Inputs {
		shared := false
		for _, vin := range v.Inputs {
			if in == vin {
				shared = true
				break
			}
		}
		if !shared {
			tensor.PutMatrix(in)
		}
	}
	h.Inputs = nil
}
