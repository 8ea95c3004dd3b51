package kernels

import (
	"fmt"
	"math"

	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// reduceChunk is the fixed leaf size of the sums' reduction tree: the input
// is cut into ⌈n/reduceChunk⌉ chunks, each summed in turn, and the per-chunk
// sums are merged in chunk order. The tree's shape depends only on n, and
// inputs at or below one chunk take exactly the plain sequential path.
const reduceChunk = 1 << 16

// Reduction kernels produce canonical partial results so that per-partition
// partials from different devices can be merged:
//
//	reduce_sum      -> 1x1  [sum]
//	reduce_average  -> 1x2  [sum, count]   (finalized to 1x1 by MergePartials)
//	reduce_max      -> 1x1  [max]
//	reduce_min      -> 1x1  [min]
//	reduce_hist256  -> 1x256 bin counts over [histLo, histHi)
//
// The histogram range comes from the "hist_lo"/"hist_hi" attributes
// (defaults 0 and 1), mirroring OpenCV's calcHist with fixed ranges.
func execReduce(op vop.Opcode, inputs []*tensor.Matrix, a attrs, r Rounder) (*tensor.Matrix, error) {
	if err := checkInputs(op, inputs, 1); err != nil {
		return nil, err
	}
	in := inputs[0]
	// The fixed-shape reduction tree walks a flat payload; gather strided
	// views once so the tree (and Kahan merge order) is identical to the
	// copy path. Row-band views are contiguous and skip this.
	if !in.IsContiguous() {
		in = tensor.Materialize(in)
		defer tensor.PutMatrix(in)
	}
	switch op {
	case vop.OpReduceSum:
		out := tensor.GetMatrixUninit(1, 1)
		out.Data[0] = chunkedKahanSum(in.Data)
		r.Round(out.Data)
		return out, nil
	case vop.OpReduceAverage:
		out := tensor.GetMatrixUninit(1, 2)
		out.Data[0] = chunkedKahanSum(in.Data)
		out.Data[1] = float64(in.Len())
		r.Round(out.Data[:1]) // the count is exact bookkeeping, never rounded
		return out, nil
	case vop.OpReduceMax:
		out := tensor.GetMatrixUninit(1, 1)
		out.Data[0] = extreme(in.Data, math.Inf(-1), func(a, b float64) bool { return a > b })
		r.Round(out.Data)
		return out, nil
	case vop.OpReduceMin:
		out := tensor.GetMatrixUninit(1, 1)
		out.Data[0] = extreme(in.Data, math.Inf(1), func(a, b float64) bool { return a < b })
		r.Round(out.Data)
		return out, nil
	case vop.OpReduceHist256:
		lo := a.get("hist_lo", 0)
		hi := a.get("hist_hi", 1)
		if hi <= lo {
			return nil, fmt.Errorf("kernels: reduce_hist256 range [%g,%g) is empty", lo, hi)
		}
		out := tensor.GetMatrix(1, 256)
		// The Edge TPU path quantizes the *input* before binning (binning
		// itself is integer bookkeeping), so round a working copy.
		data := in.Data
		var scratch []float64
		if _, exact := r.(Exact); !exact {
			scratch = tensor.GetFloats(len(in.Data))
			copy(scratch, in.Data)
			r.Round(scratch)
			data = scratch
		}
		// Bin counts are small-integer adds, exact in float64, so one scan
		// gives the counts of any chunking.
		histInto(out.Data, data, lo, 256/(hi-lo))
		tensor.PutFloats(scratch)
		return out, nil
	default:
		return nil, fmt.Errorf("kernels: %s is not a reduction", op)
	}
}

// histInto bins vals into the 256-entry counts slice.
func histInto(counts, vals []float64, lo, scale float64) {
	for _, v := range vals {
		bin := int((v - lo) * scale)
		if bin < 0 {
			bin = 0
		}
		if bin > 255 {
			bin = 255
		}
		counts[bin]++
	}
}

// chunkedKahanSum reduces vals through the fixed-shape tree: per-chunk Kahan
// sums, merged with Kahan compensation in chunk order. A single chunk
// degenerates to plain kahanSum, preserving the legacy sequential result.
func chunkedKahanSum(vals []float64) float64 {
	chunks := (len(vals) + reduceChunk - 1) / reduceChunk
	if chunks <= 1 {
		return kahanSum(vals)
	}
	partials := tensor.GetFloats(chunks)
	for c := range partials {
		partials[c] = kahanSum(vals[c*reduceChunk : min((c+1)*reduceChunk, len(vals))])
	}
	sum := kahanSum(partials)
	tensor.PutFloats(partials)
	return sum
}

// extreme reduces vals with the better predicate (max or min). A comparison
// merge is exact, so one scan needs no chunk tree: the first of the best
// values wins however the input is cut.
func extreme(vals []float64, id float64, better func(a, b float64) bool) float64 {
	m := id
	for _, v := range vals {
		if better(v, m) {
			m = v
		}
	}
	return m
}

// MergePartials combines per-partition reduction partials into the final VOP
// output. totalN is the total element count of the VOP input (needed for
// reduce_average).
func MergePartials(op vop.Opcode, partials []*tensor.Matrix, totalN int) (*tensor.Matrix, error) {
	if len(partials) == 0 {
		return nil, fmt.Errorf("kernels: no partials to merge for %s", op)
	}
	switch op {
	case vop.OpReduceSum:
		out := tensor.NewMatrix(1, 1)
		for _, p := range partials {
			out.Data[0] += p.Data[0]
		}
		return out, nil
	case vop.OpReduceAverage:
		var sum, cnt float64
		for _, p := range partials {
			sum += p.Data[0]
			cnt += p.Data[1]
		}
		if cnt == 0 {
			cnt = float64(totalN)
		}
		out := tensor.NewMatrix(1, 1)
		if cnt > 0 {
			out.Data[0] = sum / cnt
		}
		return out, nil
	case vop.OpReduceMax:
		out := tensor.NewMatrix(1, 1)
		out.Data[0] = math.Inf(-1)
		for _, p := range partials {
			if p.Data[0] > out.Data[0] {
				out.Data[0] = p.Data[0]
			}
		}
		return out, nil
	case vop.OpReduceMin:
		out := tensor.NewMatrix(1, 1)
		out.Data[0] = math.Inf(1)
		for _, p := range partials {
			if p.Data[0] < out.Data[0] {
				out.Data[0] = p.Data[0]
			}
		}
		return out, nil
	case vop.OpReduceHist256:
		out := tensor.NewMatrix(1, 256)
		for _, p := range partials {
			if p.Len() != 256 {
				return nil, fmt.Errorf("kernels: histogram partial has %d bins", p.Len())
			}
			for i, v := range p.Data {
				out.Data[i] += v
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("kernels: %s is not a reduction", op)
	}
}

// kahanSum adds values with compensated summation so the fp64 reference is
// stable on the paper's 64M-element inputs.
func kahanSum(vals []float64) float64 {
	var sum, c float64
	for _, v := range vals {
		y := v - c
		t := sum + y
		c = (t - sum) - y
		sum = t
	}
	return sum
}
