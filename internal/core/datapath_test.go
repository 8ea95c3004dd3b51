package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"shmt/internal/device"
	"shmt/internal/device/cpu"
	"shmt/internal/device/gpu"
	"shmt/internal/device/tpu"
	"shmt/internal/hlop"
	"shmt/internal/parallel"
	"shmt/internal/sched"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// randVOP builds a random VOP for op (sizes and values derived from r) and
// returns it with its raw inputs and attrs, so a second VOP over the same
// matrices can be built for the comparison run.
func randVOP(t testing.TB, r *rand.Rand, op vop.Opcode) ([]*tensor.Matrix, map[string]float64) {
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
		return []*tensor.Matrix{a, b}, attrs
	case vop.OpConv:
		k := tensor.NewMatrix(3, 3)
		for i := range k.Data {
			k.Data[i] = r.NormFloat64()
		}
		return []*tensor.Matrix{mk(-1, 1), k}, attrs
	case vop.OpStencil:
		attrs["steps"] = float64(1 + r.Intn(3))
		return []*tensor.Matrix{mk(70, 90), mk(0, 1)}, attrs
	case vop.OpParabolicPDE:
		return []*tensor.Matrix{mk(20, 120), mk(40, 100)}, attrs
	case vop.OpSqrt, vop.OpSRAD:
		return []*tensor.Matrix{mk(0.1, 2)}, attrs
	case vop.OpAdd, vop.OpMultiply:
		return []*tensor.Matrix{mk(-1, 1), mk(-1, 1)}, attrs
	default:
		return []*tensor.Matrix{mk(-1, 1)}, attrs
	}
}

// runSpec executes op over inputs with the given spec and returns the output.
// Each run gets its own VOP over the shared (never mutated) input matrices.
func runSpec(t testing.TB, reg *device.Registry, pol sched.Policy,
	op vop.Opcode, inputs []*tensor.Matrix, attrs map[string]float64,
	spec hlop.Spec) *tensor.Matrix {
	t.Helper()
	v, err := vop.New(op, inputs...)
	if err != nil {
		t.Fatalf("vop.New(%s): %v", op, err)
	}
	for k, x := range attrs {
		v.SetAttr(k, x)
	}
	e := &Engine{Reg: reg, Policy: pol, Spec: spec, Seed: 7}
	rep, err := e.Run(v)
	if err != nil {
		t.Fatalf("run %s (ForceCopy=%v): %v", op, spec.ForceCopy, err)
	}
	return rep.Output
}

// Property: the zero-copy view datapath is bit-identical to the materialized
// copy datapath for every opcode, partitioner geometry, device mix, and host
// worker count. The deterministic engine gives both runs the same schedule,
// so any output difference can only come from the data representation.
func TestPropertyViewCopyBitIdentity(t *testing.T) {
	ops := []vop.Opcode{
		vop.OpSqrt, vop.OpTanh, vop.OpRelu, vop.OpAdd, vop.OpMultiply,
		vop.OpSobel, vop.OpLaplacian, vop.OpMeanFilter, vop.OpSRAD,
		vop.OpDCT8x8, vop.OpFDWT97, vop.OpFFT, vop.OpParabolicPDE,
		vop.OpReduceSum, vop.OpReduceMax, vop.OpReduceAverage,
		vop.OpGEMM, vop.OpStencil, vop.OpConv,
	}
	cpuOnly, err := device.NewRegistry(cpu.New(1))
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := device.NewRegistry(cpu.New(1), gpu.New(gpu.Config{}), tpu.New(tpu.Config{}))
	if err != nil {
		t.Fatal(err)
	}

	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		op := ops[r.Intn(len(ops))]
		inputs, attrs := randVOP(t, r, op)

		reg, pol := cpuOnly, row("cpu-only").Policy
		if r.Intn(2) == 0 {
			reg, pol = mixed, row("work-stealing").Policy
		}
		spec := hlop.Spec{
			TargetPartitions: 1 + r.Intn(12),
			MinTile:          8,
			MinVectorElems:   32,
		}
		prev := parallel.SetWorkers(1 + r.Intn(8))
		defer parallel.SetWorkers(prev)

		viewSpec, copySpec := spec, spec
		copySpec.ForceCopy = true
		got := runSpec(t, reg, pol, op, inputs, attrs, viewSpec)
		want := runSpec(t, reg, pol, op, inputs, attrs, copySpec)
		if !got.Equal(want) {
			t.Logf("op=%s seed=%d parts=%d: view path diverged from copy path",
				op, seed, spec.TargetPartitions)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Uneven tails: partition counts that do not divide the row count leave a
// short final band; the view path must cover it exactly.
func TestViewPathUnevenTail(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	in := tensor.NewMatrix(37, 19)
	for i := range in.Data {
		in.Data[i] = r.NormFloat64()
	}
	reg, err := device.NewRegistry(cpu.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{2, 5, 8, 36, 37, 40} {
		spec := hlop.Spec{TargetPartitions: parts, MinVectorElems: 8, MinTile: 8}
		copySpec := spec
		copySpec.ForceCopy = true
		got := runSpec(t, reg, row("cpu-only").Policy, vop.OpRelu,
			[]*tensor.Matrix{in}, nil, spec)
		want := runSpec(t, reg, row("cpu-only").Policy, vop.OpRelu,
			[]*tensor.Matrix{in}, nil, copySpec)
		if !got.Equal(want) {
			t.Fatalf("parts=%d: uneven tail diverged", parts)
		}
	}
}

// Degenerate shapes: single-row and single-column matrices partition into
// views with extreme aspect ratios (a 1×N view is always contiguous, an N×1
// view is maximally strided).
func TestViewPathDegenerateShapes(t *testing.T) {
	reg, err := device.NewRegistry(cpu.New(1))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(13))
	for _, shape := range []struct{ rows, cols int }{{1, 4096}, {4096, 1}, {1, 1}, {3, 1}} {
		a := tensor.NewMatrix(shape.rows, shape.cols)
		b := tensor.NewMatrix(shape.rows, shape.cols)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
			b.Data[i] = r.NormFloat64()
		}
		spec := hlop.Spec{TargetPartitions: 6, MinVectorElems: 16, MinTile: 8}
		copySpec := spec
		copySpec.ForceCopy = true
		got := runSpec(t, reg, row("cpu-only").Policy, vop.OpAdd,
			[]*tensor.Matrix{a, b}, nil, spec)
		want := runSpec(t, reg, row("cpu-only").Policy, vop.OpAdd,
			[]*tensor.Matrix{a, b}, nil, copySpec)
		if !got.Equal(want) {
			t.Fatalf("%dx%d: view path diverged", shape.rows, shape.cols)
		}
		for i := range a.Data {
			if got.Data[i] != a.Data[i]+b.Data[i] {
				t.Fatalf("%dx%d: wrong sum at %d", shape.rows, shape.cols, i)
			}
		}
	}
}

// Halo border clamp: stencil partitions whose halos clamp at the matrix edge
// must agree with the whole-matrix run through the view-era plumbing (halo
// blocks stay materialized, but their aggregation shares the new scatter).
func TestViewPathHaloBorderClamp(t *testing.T) {
	reg, err := device.NewRegistry(cpu.New(1))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(17))
	in := tensor.NewMatrix(24, 24)
	for i := range in.Data {
		in.Data[i] = r.NormFloat64()
	}
	spec := hlop.Spec{TargetPartitions: 9, MinTile: 8, MinVectorElems: 8}
	got := runSpec(t, reg, row("cpu-only").Policy, vop.OpSobel,
		[]*tensor.Matrix{in}, nil, spec)
	want, err := cpu.New(1).Execute(vop.OpSobel, []*tensor.Matrix{in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("partitioned sobel diverged from whole-matrix run at clamped borders")
	}
}

// Regression: aggregating a fully aliased run — every HLOP wrote through its
// output view — must perform no copies and no allocations at all.
func TestAggregateAliasedZeroAllocs(t *testing.T) {
	a := tensor.NewMatrix(64, 64)
	b := tensor.NewMatrix(64, 64)
	for i := range a.Data {
		a.Data[i] = float64(i)
		b.Data[i] = 1
	}
	v, err := vop.New(vop.OpAdd, a, b)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := hlop.Partition(v, hlop.Spec{TargetPartitions: 8, MinVectorElems: 8})
	if err != nil {
		t.Fatal(err)
	}
	out := tensor.NewMatrix(64, 64)
	if err := bindOutputViews(out, hs); err != nil {
		t.Fatal(err)
	}
	done := make([]doneHLOP, len(hs))
	views := make([]*tensor.Matrix, len(hs))
	saved := make([][]*tensor.Matrix, len(hs))
	for i, h := range hs {
		done[i] = doneHLOP{h: h}
		views[i] = h.Out
		saved[i] = h.Inputs
	}
	var aggErr error
	allocs := testing.AllocsPerRun(50, func() {
		// aggregate releases per-HLOP state; restore it so every iteration
		// measures the same aliased fast path (restores are plain stores).
		for i, h := range hs {
			h.Out = views[i]
			h.Result = views[i]
			h.Inputs = saved[i]
		}
		var bytes int64
		_, bytes, aggErr = aggregate(v, done, out)
		if bytes != 0 {
			panic("aliased aggregation copied bytes")
		}
	})
	if aggErr != nil {
		t.Fatal(aggErr)
	}
	if allocs != 0 {
		t.Fatalf("aliased aggregation allocated %.1f times per run; want 0", allocs)
	}
}
