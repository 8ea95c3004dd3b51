package core

import (
	"fmt"
	"slices"

	"shmt/internal/hlop"
	"shmt/internal/kernels"
	"shmt/internal/telemetry"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// land puts a computed HLOP's result into its region of out, the output of
// the HLOP's VOP, and releases the HLOP's buffers: the data-aggregation step
// the runtime performs from a device's completion queue while the devices
// still run (§3.3.1). It runs in the pool task that computed the result, so a
// private result lives only until its own task has copied it, and a round
// holds at most one per pool worker. A result written through the HLOP's
// output view is already in place; any other is copied in — a halo result
// from a view of its interior. Output regions are disjoint, so tasks landing
// side by side never write the same element. Reduction partials do not land:
// aggregate merges them.
func (d *doneHLOP) land(out *tensor.Matrix) error {
	h := d.h
	d.aliased = h.Out != nil && h.Result == h.Out
	if !d.aliased {
		block := h.Result
		var interior tensor.Matrix
		if h.Op.Halo() > 0 {
			if err := block.ViewInto(&interior, h.Interior); err != nil {
				return fmt.Errorf("core: extracting interior of HLOP %d: %w", h.ID, err)
			}
			block = &interior
		}
		if err := tensor.CopyIn(out, h.Region, block); err != nil {
			return fmt.Errorf("core: landing HLOP %d: %w", h.ID, err)
		}
		telemetry.DatapathBytesCopied.Add(h.Region.Bytes(tensor.ElemSize))
	}
	releaseHLOPBuffers(h.Parent, h)
	d.landed = true
	return nil
}

// aggregate completes one VOP's output once its HLOPs are computed. Every
// result but a reduction's has landed in out already, so for those it only
// counts the results that aliased their output view and returns out with the
// bytes the rest copied, for the host-time accounting. Reduction partials, a
// few values each, merge here semantically in HLOP-ID order and are released
// with the HLOP's other buffers; done, the VOP's part of the round's grouped
// HLOPs, is sorted into that order in place, and the partials are listed in
// the round's scratch.
func (r *round) aggregate(v *vop.VOP, done []doneHLOP, out *tensor.Matrix) (*tensor.Matrix, int64, error) {
	if len(done) == 0 {
		return nil, 0, fmt.Errorf("core: no completed HLOPs to aggregate")
	}
	if v.Op.IsReduction() {
		slices.SortFunc(done, func(a, b doneHLOP) int { return a.h.ID - b.h.ID })
		partials := r.partials[:0]
		var bytes int64
		for _, d := range done {
			partials = append(partials, d.h.Result)
			bytes += d.h.Result.Bytes(tensor.ElemSize)
		}
		merged, err := kernels.MergePartials(v.Op, partials, v.Inputs[0].Len())
		clear(partials)
		r.partials = partials
		if err != nil {
			return nil, 0, err
		}
		for _, d := range done {
			releaseHLOPBuffers(v, d.h)
		}
		return merged, bytes, nil
	}
	var aliased, aliasedBytes, copied int64
	for _, d := range done {
		if n := d.h.Region.Bytes(tensor.ElemSize); d.aliased {
			aliased++
			aliasedBytes += n
		} else {
			copied += n
		}
	}
	if aliased > 0 {
		telemetry.DatapathBytesAliased.Add(aliasedBytes)
		telemetry.DatapathCopiesAvoided.Add(aliased)
	}
	return out, copied, nil
}

// releaseHLOPBuffers returns an HLOP's result and its private input blocks
// to the tensor arena. Inputs that alias the parent VOP's matrices are
// skipped; everything else (a halo block) was materialized for this HLOP
// alone and is dead once its result has landed. It clears what it releases,
// so a second call on the same HLOP puts nothing.
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
