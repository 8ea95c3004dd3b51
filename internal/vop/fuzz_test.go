package vop_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"shmt/internal/hlop"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// FuzzValidate holds the VOP rule to what the runtime builds on it. The op
// name goes through vop.Parse, the shapes and input count vary (sides up to
// 64, so every input stays small), and so do the iteration attributes
// "levels" and "steps". Every name Parse accepts must round-trip through
// String, and every VOP Validate accepts must have a non-negative halo, a
// finite work factor of at least 1 computed in bounded time, and partition
// into HLOPs that each carry positive work.
//
//	go test -run='^$' -fuzz='^FuzzValidate$' -fuzztime=30s ./internal/vop/
func FuzzValidate(f *testing.F) {
	f.Add("stencil", uint8(2), uint8(8), uint8(8), uint8(8), uint8(8), 1.0, 4.0, uint8(4))
	f.Add("FDWT97", uint8(1), uint8(16), uint8(16), uint8(0), uint8(0), 1e9, 1.0, uint8(4))
	f.Add("stencil", uint8(2), uint8(1), uint8(1), uint8(1), uint8(1), 1.0, 9.2e18, uint8(1))
	f.Add("stencil", uint8(2), uint8(8), uint8(8), uint8(8), uint8(8), 1.0, 2.5, uint8(2))
	f.Add("gemm", uint8(2), uint8(8), uint8(4), uint8(4), uint8(8), 1.0, 1.0, uint8(8))
	f.Add("conv", uint8(2), uint8(16), uint8(16), uint8(3), uint8(3), 1.0, 1.0, uint8(8))
	f.Add("dct8x8", uint8(1), uint8(16), uint8(24), uint8(0), uint8(0), 1.0, 1.0, uint8(8))
	f.Add("reduce_hist256", uint8(1), uint8(64), uint8(64), uint8(0), uint8(0), 1.0, 1.0, uint8(64))
	f.Fuzz(func(t *testing.T, name string, n, r0, c0, r1, c1 uint8, levels, steps float64, parts uint8) {
		op, ok := vop.Parse(name)
		if !ok {
			return
		}
		if !strings.EqualFold(op.String(), name) {
			t.Fatalf("Parse(%q) = %v, whose String does not match", name, op)
		}
		shapes := [][2]int{{int(r0 % 65), int(c0 % 65)}, {int(r1 % 65), int(c1 % 65)}, {int(r0 % 65), int(c0 % 65)}}
		inputs := make([]*tensor.Matrix, int(n%4))
		for i := range inputs {
			inputs[i] = tensor.NewMatrix(shapes[i][0], shapes[i][1])
		}
		v := &vop.VOP{Op: op, Inputs: inputs, Attrs: map[string]float64{"levels": levels, "steps": steps}}
		if v.Validate() != nil {
			return
		}
		if h := v.HaloWidth(); h < 0 {
			t.Fatalf("%s levels=%g steps=%g: halo %d", op, levels, steps, h)
		}
		start := time.Now()
		wf := v.WorkFactor()
		if d := time.Since(start); d > time.Second {
			t.Fatalf("%s levels=%g steps=%g: WorkFactor took %v", op, levels, steps, d)
		}
		if math.IsNaN(wf) || math.IsInf(wf, 0) || wf < 1 {
			t.Fatalf("%s levels=%g steps=%g: work factor %g", op, levels, steps, wf)
		}
		hs, err := hlop.Partition(v, hlop.Spec{TargetPartitions: int(parts%64) + 1, MinVectorElems: 16, MinTile: 8})
		if err != nil {
			t.Fatalf("%s %v: Validate accepted what Partition refuses: %v", op, shapes, err)
		}
		for _, h := range hs {
			if h.Elems <= 0 {
				t.Fatalf("%s levels=%g steps=%g: HLOP %d has Elems %d", op, levels, steps, h.ID, h.Elems)
			}
		}
	})
}
