package core

import (
	"math"
	"math/rand"
	"testing"

	"shmt/internal/device/cpu"
	"shmt/internal/device/gpu"
	"shmt/internal/device/tpu"
	"shmt/internal/hlop"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// FuzzPartitionViews is the partitioner's differential fuzz: over any shape,
// halo and partition geometry, a VOP's output through the view datapath —
// hlop.Partition on a plan-cache miss, hlop.Replay on the hit after it — is
// bit-identical to the materialised-copy oracle (copyDevice), and a replay
// rebuilds exactly the HLOPs Partition built. The partitions cover the output
// once (CheckCoverage), and on the exact CPU alone the partitioned output is
// the whole-matrix kernel's, bit for bit, reductions aside (their partials
// merge in another order). Halos come from the opcode: the stencils', widened
// by Hotspot's steps, and the convolution's.
func FuzzPartitionViews(f *testing.F) {
	ops := []vop.Opcode{
		vop.OpRelu, vop.OpAdd, vop.OpSobel, vop.OpMeanFilter, vop.OpSRAD,
		vop.OpStencil, vop.OpConv, vop.OpDCT8x8, vop.OpFFT, vop.OpParabolicPDE,
		vop.OpGEMM, vop.OpReduceSum,
	}
	for i := range ops {
		f.Add(uint8(i), uint8(37), uint8(19), uint8(5), uint8(8), uint8(2), uint8(i%3), int64(i))
	}
	f.Add(uint8(5), uint8(63), uint8(63), uint8(63), uint8(0), uint8(3), uint8(1), int64(99)) // Hotspot, halo 4
	f.Add(uint8(10), uint8(0), uint8(200), uint8(80), uint8(1), uint8(0), uint8(2), int64(7)) // one-row GEMM
	single, singleCopy := viewAndCopy(f, cpu.New(1))
	mixed, mixedCopy := viewAndCopy(f, cpu.New(1), gpu.New(gpu.Config{}), tpu.New(tpu.Config{}))
	policies := []string{"cpu-only", "work-stealing", "QAWS-TS"}

	f.Fuzz(func(t *testing.T, opIdx, rows, cols, parts, grain, steps, policy uint8, seed int64) {
		op := ops[int(opIdx)%len(ops)]
		r, c := 1+int(rows)%64, 1+int(cols)%64
		switch op {
		case vop.OpDCT8x8:
			r, c = 8*(1+r%8), 8*(1+c%8)
		case vop.OpFFT:
			c = 1 << (c % 7)
		}
		inputs, attrs := randInputs(rand.New(rand.NewSource(seed)), op, r, c)
		if op == vop.OpStencil {
			attrs["steps"] = float64(1 + steps%4)
		}
		spec := hlop.Spec{
			TargetPartitions: 1 + int(parts)%80,
			MinTile:          1 + int(grain)%16,
			MinVectorElems:   1 + int(grain)%64,
		}
		key := policies[int(policy)%len(policies)]
		reg, copyReg := mixed, mixedCopy
		if key == "cpu-only" {
			reg, copyReg = single, singleCopy
		}
		pol := row(key).Policy
		newVOP := func() *vop.VOP {
			v, err := vop.New(op, inputs...)
			if err != nil {
				t.Skip(err) // a shape the opcode refuses
			}
			for k, x := range attrs {
				v.SetAttr(k, x)
			}
			return v
		}

		v := newVOP()
		if err := CheckCoverage(v, spec); err != nil {
			t.Fatalf("%s %dx%d, spec %+v: %v", op, r, c, spec, err)
		}
		planned, err := hlop.Partition(v, spec)
		if err != nil {
			t.Fatalf("%s %dx%d: %v", op, r, c, err)
		}
		replayed, err := hlop.Replay(v, hlop.Capture(planned))
		if err != nil {
			t.Fatalf("%s %dx%d: replay: %v", op, r, c, err)
		}
		for i, h := range planned {
			if err := sameHLOP(h, replayed[i]); err != "" {
				t.Fatalf("%s %dx%d, %d partitions: replayed HLOP %d: %s", op, r, c, len(planned), i, err)
			}
		}

		e := &Engine{Reg: reg, Policy: pol, Spec: spec, Seed: 7, PlanCacheEntries: 4}
		want := (&Engine{Reg: copyReg, Policy: pol, Spec: spec, Seed: 7}).mustRun(t, newVOP())
		for _, pass := range []string{"partitioned", "replayed"} {
			if got := e.mustRun(t, newVOP()); !sameBits(got, want) {
				t.Fatalf("%s %dx%d under %s, spec %+v: the %s view path differs from the copy path",
					op, r, c, key, spec, pass)
			}
		}
		if st := e.PlanCacheStats(); st.Hits != 1 {
			t.Fatalf("the second run did not replay its plan: %+v", st)
		}
		if key != "cpu-only" || op.IsReduction() {
			return
		}
		whole, err := cpu.New(1).ExecuteInto(op, inputs, nil, attrs)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(want, whole) {
			t.Fatalf("%s %dx%d, spec %+v: the partitioned output differs from the whole-matrix run",
				op, r, c, spec)
		}
	})
}

func (e *Engine) mustRun(t *testing.T, v *vop.VOP) *tensor.Matrix {
	t.Helper()
	rep, err := e.Run(v)
	if err != nil {
		t.Fatalf("%s: %v", v.Op, err)
	}
	return rep.Output
}

// sameBits reports whether a and b hold the same shape and the same bits.
func sameBits(a, b *tensor.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ar, br := a.Row(i), b.Row(i)
		for j := range ar {
			if math.Float64bits(ar[j]) != math.Float64bits(br[j]) {
				return false
			}
		}
	}
	return true
}

// sameHLOP compares what Partition and Replay build of one partition: the
// geometry, the cost basis and every input's contents.
func sameHLOP(a, b *hlop.HLOP) string {
	switch {
	case a.ID != b.ID || a.Op != b.Op || a.Parent != b.Parent:
		return "identity differs"
	case a.Region != b.Region || a.Interior != b.Interior:
		return "geometry differs"
	case a.Elems != b.Elems:
		return "cost basis differs"
	case len(a.Inputs) != len(b.Inputs):
		return "input count differs"
	}
	for k := range a.Inputs {
		if a.Inputs[k].IsView() != b.Inputs[k].IsView() || !sameBits(a.Inputs[k], b.Inputs[k]) {
			return "an input differs"
		}
	}
	return ""
}
