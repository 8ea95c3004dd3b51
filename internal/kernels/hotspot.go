package kernels

import (
	"fmt"

	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// execHotspot performs one step of Rodinia's Hotspot transient thermal
// simulation: inputs are the temperature grid and the per-cell power grid;
// the update is an explicit 5-point stencil
//
//	T' = T + dt/cap * (P + (T_n + T_s - 2T)/Ry + (T_w + T_e - 2T)/Rx + (Tamb - T)/Rz)
//
// Attributes (all optional, defaults follow Rodinia's 0.5 mm chip
// parameters scaled per cell): "dt_cap" (dt/capacitance, default 0.1),
// "rx", "ry", "rz" (thermal resistances, defaults 1, 1, 4) and "tamb"
// (ambient temperature, default 80.0).
//
// The "steps" attribute (default 1) iterates the update, as Rodinia's
// transient simulation does; the runtime widens the partition halo to match
// (see vop.Opcode.HaloFor), so multi-step partitions remain independent.
//
// Stage boundaries: per step, the neighbour-delta accumulation and the
// update (2 stages). Within a step both sweeps read only the previous
// stage's grids.
func execHotspot(inputs []*tensor.Matrix, dst *tensor.Matrix, a attrs, r Rounder) (*tensor.Matrix, error) {
	if err := checkInputs(vop.OpStencil, inputs, 2); err != nil {
		return nil, err
	}
	temp, power := inputs[0], inputs[1]
	if dst != nil && (dst.Rows != temp.Rows || dst.Cols != temp.Cols) {
		return nil, fmt.Errorf("kernels: destination %dx%d does not match output %dx%d", dst.Rows, dst.Cols, temp.Rows, temp.Cols)
	}
	dtCap := a.get("dt_cap", 0.1)
	rx := a.get("rx", 1)
	ry := a.get("ry", 1)
	rz := a.get("rz", 4)
	tamb := a.get("tamb", 80)
	steps := int(a.get("steps", 1))
	if steps < 1 {
		steps = 1
	}

	rows, cols := temp.Rows, temp.Cols
	cur := temp
	delta := tensor.GetMatrixUninit(rows, cols)
	for s := 0; s < steps; s++ {
		hotspotDelta(cur, power, delta, rx, ry, rz, tamb)
		r.Round(delta.Data) // stage 1

		next := tensor.GetMatrixUninit(rows, cols)
		// cur may be a strided view on the first step; forSpans2 falls back
		// to whole-row runs in that case.
		forSpans2(next, cur, delta, dtCap, hotspotUpdate)
		r.Round(next.Data) // stage 2
		if cur != temp {
			tensor.PutMatrix(cur)
		}
		cur = next
	}
	tensor.PutMatrix(delta)
	if dst == nil {
		return cur, nil
	}
	dst.CopyFrom(cur)
	tensor.PutMatrix(cur)
	return dst, nil
}

// hotspotDelta writes every cell's power plus its heat exchange with its
// neighbours and the ambient, from the step's source grid src.
func hotspotDelta(src, power, delta *tensor.Matrix, rx, ry, rz, tamb float64) {
	for i := 0; i < src.Rows; i++ {
		up, mid, dn := rows3(src, i)
		pRow, dRow := power.Row(i)[:len(mid)], delta.Row(i)[:len(mid)]
		for j, t := range mid {
			l, r := cols3(j, len(mid))
			dRow[j] = pRow[j] +
				(up[j]+dn[j]-2*t)/ry +
				(mid[l]+mid[r]-2*t)/rx +
				(tamb-t)/rz
		}
	}
}

func hotspotUpdate(dtCap float64, d, x, y []float64) {
	for i := range d {
		d[i] = x[i] + dtCap*y[i]
	}
}
