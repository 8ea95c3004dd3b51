package sched

import (
	"math"
	"testing"

	"shmt/internal/hlop"
	"shmt/internal/tensor"
	"shmt/internal/vop"
	"shmt/internal/workload"
)

// TestCriticalityIsViewInvariant: a criticality source scores a partition by
// its elements, not by their layout. For every opcode whose partitions alias
// the input through strided tile views (DCT8x8 and FDWT97), every source
// gives each partition the same criticality bits on the view as on a dense
// tensor.CopyOut copy of it.
func TestCriticalityIsViewInvariant(t *testing.T) {
	ctx := testCtx(t)
	in := workload.Mixed(128, 128, workload.Profile{CriticalFraction: 0.3, TileSize: 16}, 5)
	spec := hlop.Spec{TargetPartitions: 16, MinTile: 8}
	var viewOps []vop.Opcode
	for _, op := range vop.All() {
		inputs := make([]*tensor.Matrix, op.NumInputs())
		for i := range inputs {
			inputs[i] = in
		}
		v, err := vop.New(op, inputs...)
		if err != nil {
			continue
		}
		probe, err := hlop.Partition(v, spec)
		if err != nil {
			t.Fatal(err)
		}
		strided := false
		for _, h := range probe {
			strided = strided || h.Inputs[0].RowStride() != h.Inputs[0].Cols
		}
		if !strided {
			continue
		}
		viewOps = append(viewOps, op)
		for _, row := range Table {
			if row.Policy.Source == NoCriticality {
				continue
			}
			pol := row.Tuned(0.05)
			views, _ := hlop.Partition(v, spec)
			dense, _ := hlop.Partition(v, spec)
			for _, h := range dense {
				c, err := tensor.CopyOut(h.Inputs[0], tensor.Region{Height: h.Inputs[0].Rows, Width: h.Inputs[0].Cols})
				if err != nil {
					t.Fatal(err)
				}
				h.Inputs[0] = c
			}
			if _, err := pol.Assign(ctx, views); err != nil {
				t.Fatal(err)
			}
			if _, err := pol.Assign(ctx, dense); err != nil {
				t.Fatal(err)
			}
			for i, h := range views {
				if math.Float64bits(h.Criticality) != math.Float64bits(dense[i].Criticality) {
					t.Fatalf("%s %s, partition %d: criticality %v on the view, %v on a dense copy",
						op, row.Key, i, h.Criticality, dense[i].Criticality)
				}
			}
		}
	}
	if len(viewOps) < 2 {
		t.Fatalf("tile-view opcodes %v: want DCT8x8 and FDWT97 at least", viewOps)
	}
}
