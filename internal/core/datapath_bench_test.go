package core

import (
	"fmt"
	"testing"

	"shmt/internal/hlop"
	"shmt/internal/telemetry"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// BenchmarkDatapath isolates the partition → aggregate data movement for a
// full-width row-band workload on a shared-memory device, comparing the
// zero-copy view path against the materialized copy path (every view input
// copied out, as a device without shared host memory needs). Execution itself
// is simulated as an in-place write (view mode: the device returned its
// output view; copy mode: a fresh arena buffer), so the measured work is
// exactly the staging traffic the views eliminate. The copied_B/op and
// aliased_B/op metrics come from the runtime's own datapath counters; on the
// view path copied_B/op must be zero, and on the copy path aliased_B/op counts
// the views the copies replaced.
func BenchmarkDatapath(b *testing.B) {
	telemetry.Enable()
	defer telemetry.Disable()
	for _, bc := range []struct {
		op   vop.Opcode
		side int
	}{
		{vop.OpAdd, 1024},
		{vop.OpGEMM, 256},
	} {
		for _, forceCopy := range []bool{false, true} {
			mode := "view"
			if forceCopy {
				mode = "copy"
			}
			b.Run(fmt.Sprintf("%s/%s", bc.op, mode), func(b *testing.B) {
				benchDatapath(b, bc.op, bc.side, forceCopy)
			})
		}
	}
}

func benchDatapath(b *testing.B, op vop.Opcode, side int, forceCopy bool) {
	mk := func() *tensor.Matrix {
		m := tensor.NewMatrix(side, side)
		for i := range m.Data {
			m.Data[i] = float64(i%97) * 0.25
		}
		return m
	}
	var inputs []*tensor.Matrix
	if op.NumInputs() == 2 {
		inputs = []*tensor.Matrix{mk(), mk()}
	} else {
		inputs = []*tensor.Matrix{mk()}
	}
	v, err := vop.New(op, inputs...)
	if err != nil {
		b.Fatal(err)
	}
	spec := hlop.Spec{TargetPartitions: 16, MinVectorElems: 32}
	rows, cols := v.OutputShape()
	b.SetBytes(int64(rows*cols) * tensor.ElemSize)
	copied0 := telemetry.DatapathBytesCopied.Value()
	aliased0 := telemetry.DatapathBytesAliased.Value()
	b.ReportAllocs()
	r := newRound()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hs, err := hlop.Partition(v, spec)
		if err != nil {
			b.Fatal(err)
		}
		out := tensor.GetMatrixUninit(rows, cols)
		if forceCopy {
			for _, h := range hs {
				for j, in := range h.Inputs {
					if in.IsView() {
						h.Inputs[j] = tensor.Materialize(in)
						telemetry.DatapathBytesCopied.Add(in.Bytes(tensor.ElemSize))
					}
				}
			}
		} else if err := bindOutputViews(out, hs, make([]tensor.Matrix, len(hs))); err != nil {
			b.Fatal(err)
		}
		done := make([]doneHLOP, len(hs))
		for j, h := range hs {
			if h.Out != nil {
				// Shared-memory device: the kernel wrote through the view.
				h.Result = h.Out
			} else {
				// Copy-era device: results land in a staging buffer that
				// aggregation scatters back.
				h.Result = tensor.GetMatrixUninit(h.Region.Height, h.Region.Width)
			}
			done[j] = doneHLOP{h: h}
			if err := done[j].land(out); err != nil {
				b.Fatal(err)
			}
		}
		res, _, err := r.aggregate(v, done, out)
		if err != nil {
			b.Fatal(err)
		}
		tensor.PutMatrix(res)
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(telemetry.DatapathBytesCopied.Value()-copied0)/n, "copied_B/op")
	b.ReportMetric(float64(telemetry.DatapathBytesAliased.Value()-aliased0)/n, "aliased_B/op")
}
