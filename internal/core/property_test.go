package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"shmt/internal/device"
	"shmt/internal/device/cpu"
	"shmt/internal/hlop"
	"shmt/internal/kernels"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// Property: for every opcode, exact partitioned execution through the full
// engine equals whole-matrix exact execution (halos, aggregation, reduction
// merging and the GEMM band path are all exercised), at random sizes and
// partition counts, and every tiled opcode's partition covers its output
// exactly once (CheckCoverage).
func TestPropertyEngineExactness(t *testing.T) {
	ops := []vop.Opcode{
		vop.OpSqrt, vop.OpTanh, vop.OpRelu,
		vop.OpSobel, vop.OpLaplacian, vop.OpMeanFilter, vop.OpSRAD,
		vop.OpDCT8x8, vop.OpFFT,
		vop.OpReduceSum, vop.OpReduceMax, vop.OpReduceAverage,
		vop.OpGEMM, vop.OpStencil, vop.OpConv,
	}
	reg, err := device.NewRegistry(cpu.New(1))
	if err != nil {
		t.Fatal(err)
	}

	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		op := ops[r.Intn(len(ops))]

		rows := 8 * (1 + r.Intn(8))
		cols := rows
		if op == vop.OpFFT {
			cols = 1 << (3 + r.Intn(4))
		}
		mk := func(lo, hi float64) *tensor.Matrix {
			m := tensor.NewMatrix(rows, cols)
			for i := range m.Data {
				m.Data[i] = lo + (hi-lo)*r.Float64()
			}
			return m
		}

		var inputs []*tensor.Matrix
		attrs := map[string]float64{}
		switch op {
		case vop.OpGEMM:
			inner := 4 + r.Intn(12)
			a := tensor.NewMatrix(rows, inner)
			b := tensor.NewMatrix(inner, 4+r.Intn(12))
			for i := range a.Data {
				a.Data[i] = r.NormFloat64()
			}
			for i := range b.Data {
				b.Data[i] = r.NormFloat64()
			}
			inputs = []*tensor.Matrix{a, b}
		case vop.OpConv:
			k := tensor.NewMatrix(3, 3)
			for i := range k.Data {
				k.Data[i] = r.NormFloat64()
			}
			inputs = []*tensor.Matrix{mk(-1, 1), k}
		case vop.OpStencil:
			inputs = []*tensor.Matrix{mk(70, 90), mk(0, 1)}
			attrs["steps"] = float64(1 + r.Intn(3))
		case vop.OpSqrt, vop.OpSRAD:
			inputs = []*tensor.Matrix{mk(0.1, 2)}
		default:
			inputs = []*tensor.Matrix{mk(-1, 1)}
		}

		v, err := vop.New(op, inputs...)
		if err != nil {
			return false
		}
		for k, x := range attrs {
			v.SetAttr(k, x)
		}

		e := &Engine{Reg: reg, Policy: row("cpu-only").Policy,
			Spec: hlop.Spec{TargetPartitions: 1 + r.Intn(12), MinTile: 8, MinVectorElems: 32}}
		if err := CheckCoverage(v, e.Spec); err != nil {
			t.Logf("%s %dx%d: %v", op, rows, cols, err)
			return false
		}
		rep, err := e.Run(v)
		if err != nil {
			return false
		}
		want, err := cpu.New(1).ExecuteInto(op, inputs, nil, attrs)
		if err != nil {
			return false
		}
		if op.IsReduction() {
			// Raw device execution yields the canonical partial (e.g.
			// reduce_average's [sum, count]); finalize it the way the
			// engine's aggregator does.
			want, err = kernels.MergePartials(op, []*tensor.Matrix{want}, inputs[0].Len())
			if err != nil {
				return false
			}
		}
		if rep.Output.Rows != want.Rows || rep.Output.Cols != want.Cols {
			return false
		}
		for i := range want.Data {
			d := rep.Output.Data[i] - want.Data[i]
			if d > 1e-9 || d < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// CheckCoverage partitions v with spec and verifies that the HLOPs tile the
// output exactly once: no cell covered twice, none left out. Reductions have
// no output tiling and always pass.
func CheckCoverage(v *vop.VOP, spec hlop.Spec) error {
	if v.Op.IsReduction() {
		return nil
	}
	hs, err := hlop.Partition(v, spec)
	if err != nil {
		return err
	}
	rows, cols := v.OutputShape()
	seen := make([]bool, rows*cols)
	for _, h := range hs {
		r := h.Region
		for i := r.Row; i < r.Row+r.Height; i++ {
			for j := r.Col; j < r.Col+r.Width; j++ {
				idx := i*cols + j
				if seen[idx] {
					return fmt.Errorf("core: output cell (%d,%d) covered twice", i, j)
				}
				seen[idx] = true
			}
		}
	}
	for idx, ok := range seen {
		if !ok {
			return fmt.Errorf("core: output cell (%d,%d) never covered", idx/cols, idx%cols)
		}
	}
	return nil
}
