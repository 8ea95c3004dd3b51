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

// prefetcher is the wall-clock half of double-buffered HLOP pipelining: the
// resident shared-operand cache, for every device that casts its operands
// (device.Prestager). An operand several HLOPs of a round share (a GEMM
// right-hand matrix, a convolution kernel) is cast once per device —
// quantized for the TPU, rounded to FP32 for the GPU — and kept resident for
// every consumer, instead of being re-cast per HLOP. warm makes those casts
// on the host pool before the round's compute pass, whose tasks then only
// read the cache. The pool computes whole HLOPs side by side, which already
// overlaps one HLOP's staging with another's kernel; nothing else is staged
// ahead.
//
// Results are bit-identical with the cache off: a resident cast is made by
// the device's own StageInput, the call its dispatch path would make, and is
// keyed by queue and opcode, so an HLOP only ever consumes a cast made for the
// device that admitted it.
type prefetcher struct {
	uses    map[*tensor.Matrix]int // HLOPs of the round reading each operand; read-only once built
	nShared int                    // operands more than one HLOP reads

	mu       sync.Mutex // guards the cache against the compute pass's pool tasks
	resident map[residentKey]*tensor.Matrix
	resBytes int64

	warming []residentKey // the casts warm makes, one pool task each
}

// residentKey identifies a device-resident shared operand: the same matrix
// staged for a different device or opcode quantizes differently, so both
// are part of the key.
type residentKey struct {
	qi int
	op vop.Opcode
	in *tensor.Matrix
}

// census counts which operands of hs several HLOPs share and returns pf, or
// nil when none is — only shared operands are worth keeping device-resident.
// pf is a round's cache, empty since its last reset; its maps are made on
// the first census and kept after.
func (pf *prefetcher) census(hs []*hlop.HLOP) *prefetcher {
	if pf.uses == nil {
		pf.uses = make(map[*tensor.Matrix]int, 2*len(hs))
	}
	for _, h := range hs {
		for _, in := range h.Inputs {
			if pf.uses[in]++; pf.uses[in] == 2 {
				pf.nShared++
			}
		}
	}
	if pf.nShared == 0 {
		return nil
	}
	if pf.resident == nil {
		pf.resident = make(map[residentKey]*tensor.Matrix)
	}
	return pf
}

// shared reports whether several HLOPs of the round read in.
func (pf *prefetcher) shared(in *tensor.Matrix) bool { return pf.uses[in] > 1 }

// reset empties pf for the next round, dropping every pointer into this one.
// drain has already released the resident casts.
func (pf *prefetcher) reset() {
	clear(pf.uses)
	pf.nShared = 0
	clear(pf.resident)
	clear(pf.warming)
	pf.warming = pf.warming[:0]
}

// stageSet stages every operand of h for the device at qi: shared operands
// come from (or populate) the resident cache, the rest are staged fresh and
// owned by the returned set.
func (pf *prefetcher) stageSet(ps device.Prestager, qi int, h *hlop.HLOP) *device.Staged {
	st := device.NewStaged(len(h.Inputs))
	for i, in := range h.Inputs {
		if pf.shared(in) {
			st.Inputs[i] = pf.residentFor(ps, qi, h.Op, in)
			st.Keep[i] = true
		} else {
			st.Inputs[i] = ps.StageInput(h.Op, in)
		}
	}
	return st
}

// wantsStaged reports whether the compute half should stage h through the
// prefetcher: true when one of its operands is shared, so consecutive HLOPs
// reuse one staging instead of re-casting it each. Nil-safe.
func (pf *prefetcher) wantsStaged(h *hlop.HLOP) bool {
	if pf == nil {
		return false
	}
	for _, in := range h.Inputs {
		if pf.shared(in) {
			return true
		}
	}
	return false
}

// warm casts the shared operands the admitted HLOPs are about to ask the
// resident cache for, one pool task per (device, operand), so that the
// compute fan-out that follows only ever hits: each is cast exactly once per
// device and round, where simultaneous first uses would each cast a copy and
// throw all but one away.
func (r *round) warm() {
	pf := r.pf
	if pf == nil {
		return
	}
	for _, d := range r.done {
		if _, ok := r.devs[d.h.ExecQueue].dev.(device.Prestager); !ok {
			continue
		}
		for _, in := range d.h.Inputs {
			key := residentKey{qi: d.h.ExecQueue, op: d.h.Op, in: in}
			if pf.shared(in) && !slices.Contains(pf.warming, key) {
				pf.warming = append(pf.warming, key)
			}
		}
	}
	parallel.For(len(pf.warming), 1, r.warmFn)
}

// warmRange is warm's pool task over the casts pf.warming[lo:hi].
func (r *round) warmRange(lo, hi int) {
	for _, k := range r.pf.warming[lo:hi] {
		r.pf.residentFor(r.devs[k.qi].dev.(device.Prestager), k.qi, k.op, k.in)
	}
}

// residentFor returns the device-resident staging of a shared operand,
// staging and installing it on first use. The cast runs outside the lock so
// warm's tasks cast side by side; should two first uses of one key ever race,
// the loser's copy is released and the winner is shared.
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

// drain releases the resident-operand cache. Called once when the pick loop
// exits, before aggregation releases the HLOP result buffers. Nil-safe.
func (pf *prefetcher) drain() {
	if pf == nil {
		return
	}
	for _, m := range pf.resident {
		tensor.PutMatrix(m)
	}
	clear(pf.resident)
	telemetry.PrefetchBufferBytes.Add(-pf.resBytes)
	pf.resBytes = 0
}

// executeHLOP computes h, which dev admitted under t, staging through the
// resident-operand cache when a shared operand makes that worthwhile and
// through the device's plain compute half otherwise. Both paths are
// bit-identical by construction (see device.Prestager).
func (e *Engine) executeHLOP(pf *prefetcher, qi int, dev device.Device, h *hlop.HLOP, t device.Ticket) (*tensor.Matrix, error) {
	if pf.wantsStaged(h) {
		// Admission already established that the operand set fits.
		if ps, ok := dev.(device.Prestager); ok {
			return ps.ExecuteStaged(h.Op, pf.stageSet(ps, qi, h), h.Out, h.Attrs)
		}
	}
	return dev.Compute(t, h.Op, h.Inputs, h.Out, h.Attrs)
}
