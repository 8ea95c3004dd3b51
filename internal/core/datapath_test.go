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
	return randInputs(r, op, rows, cols)
}

// randInputs draws op's inputs for a rows×cols VOP (GEMM draws its own
// inner and output widths) and its attrs.
func randInputs(r *rand.Rand, op vop.Opcode, rows, cols int) ([]*tensor.Matrix, map[string]float64) {
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
	case vop.OpAdd, vop.OpSub, vop.OpMultiply, vop.OpMax, vop.OpMin:
		return []*tensor.Matrix{mk(-1, 1), mk(-1, 1)}, attrs
	default:
		return []*tensor.Matrix{mk(-1, 1)}, attrs
	}
}

// copyDevice is the materialised-copy datapath the view path is held to: it
// computes over a dense copy of every operand and never writes through the
// HLOP's output view, as if no device shared host memory, so every result is
// a fresh buffer that aggregation scatters back.
type copyDevice struct{ device.Device }

func (d copyDevice) Compute(t device.Ticket, op vop.Opcode, inputs []*tensor.Matrix, _ *tensor.Matrix, attrs map[string]float64) (*tensor.Matrix, error) {
	dense := make([]*tensor.Matrix, len(inputs))
	for i, in := range inputs {
		dense[i] = in.Clone()
	}
	return d.Device.Compute(t, op, dense, nil, attrs)
}

// viewAndCopy returns a registry over devs and the same devices behind the
// copy datapath.
func viewAndCopy(t testing.TB, devs ...device.Device) (view, copied *device.Registry) {
	t.Helper()
	wrapped := make([]device.Device, len(devs))
	for i, d := range devs {
		wrapped[i] = copyDevice{d}
	}
	view, err := device.NewRegistry(devs...)
	if err != nil {
		t.Fatal(err)
	}
	if copied, err = device.NewRegistry(wrapped...); err != nil {
		t.Fatal(err)
	}
	return view, copied
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
		t.Fatalf("run %s: %v", op, err)
	}
	return rep.Output
}

// Property: the zero-copy view datapath is bit-identical to the materialized
// copy datapath (copyDevice) for every opcode, partitioner geometry, device
// mix, and host worker count. The deterministic engine gives both runs the
// same schedule, so any output difference can only come from the data
// representation.
func TestPropertyViewCopyBitIdentity(t *testing.T) {
	ops := []vop.Opcode{
		vop.OpSqrt, vop.OpTanh, vop.OpRelu, vop.OpAdd, vop.OpMultiply,
		vop.OpSobel, vop.OpLaplacian, vop.OpMeanFilter, vop.OpSRAD,
		vop.OpDCT8x8, vop.OpFDWT97, vop.OpFFT, vop.OpParabolicPDE,
		vop.OpReduceSum, vop.OpReduceMax, vop.OpReduceAverage,
		vop.OpGEMM, vop.OpStencil, vop.OpConv,
	}
	cpuOnly, cpuCopy := viewAndCopy(t, cpu.New(1))
	mixed, mixedCopy := viewAndCopy(t, cpu.New(1), gpu.New(gpu.Config{}), tpu.New(tpu.Config{}))

	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		op := ops[r.Intn(len(ops))]
		inputs, attrs := randVOP(t, r, op)

		reg, copyReg, pol := cpuOnly, cpuCopy, row("cpu-only").Policy
		if r.Intn(2) == 0 {
			reg, copyReg, pol = mixed, mixedCopy, row("work-stealing").Policy
		}
		spec := hlop.Spec{
			TargetPartitions: 1 + r.Intn(12),
			MinTile:          8,
			MinVectorElems:   32,
		}
		prev := parallel.SetWorkers(1 + r.Intn(8))
		defer parallel.SetWorkers(prev)

		got := runSpec(t, reg, pol, op, inputs, attrs, spec)
		want := runSpec(t, copyReg, pol, op, inputs, attrs, spec)
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
	reg, copyReg := viewAndCopy(t, cpu.New(1))
	for _, parts := range []int{2, 5, 8, 36, 37, 40} {
		spec := hlop.Spec{TargetPartitions: parts, MinVectorElems: 8, MinTile: 8}
		got := runSpec(t, reg, row("cpu-only").Policy, vop.OpRelu,
			[]*tensor.Matrix{in}, nil, spec)
		want := runSpec(t, copyReg, row("cpu-only").Policy, vop.OpRelu,
			[]*tensor.Matrix{in}, nil, spec)
		if !got.Equal(want) {
			t.Fatalf("parts=%d: uneven tail diverged", parts)
		}
	}
}

// Degenerate shapes: single-row and single-column matrices partition into
// views with extreme aspect ratios (a 1×N view is always contiguous, an N×1
// view is maximally strided).
func TestViewPathDegenerateShapes(t *testing.T) {
	reg, copyReg := viewAndCopy(t, cpu.New(1))
	r := rand.New(rand.NewSource(13))
	for _, shape := range []struct{ rows, cols int }{{1, 4096}, {4096, 1}, {1, 1}, {3, 1}} {
		a := tensor.NewMatrix(shape.rows, shape.cols)
		b := tensor.NewMatrix(shape.rows, shape.cols)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
			b.Data[i] = r.NormFloat64()
		}
		spec := hlop.Spec{TargetPartitions: 6, MinVectorElems: 16, MinTile: 8}
		got := runSpec(t, reg, row("cpu-only").Policy, vop.OpAdd,
			[]*tensor.Matrix{a, b}, nil, spec)
		want := runSpec(t, copyReg, row("cpu-only").Policy, vop.OpAdd,
			[]*tensor.Matrix{a, b}, nil, spec)
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
	want, err := cpu.New(1).ExecuteInto(vop.OpSobel, []*tensor.Matrix{in}, nil, nil)
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
	if err := bindOutputViews(out, hs, make([]tensor.Matrix, len(hs))); err != nil {
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
	r := newRound()
	var aggErr error
	allocs := testing.AllocsPerRun(50, func() {
		// Landing releases per-HLOP state; restore it so every iteration
		// measures the same aliased fast path (restores are plain stores).
		for i, h := range hs {
			h.Out = views[i]
			h.Result = views[i]
			h.Inputs = saved[i]
			if aggErr = done[i].land(out); aggErr != nil || !done[i].aliased {
				panic("an aliased result did not land in place")
			}
		}
		var bytes int64
		_, bytes, aggErr = r.aggregate(v, done, out)
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

	// A reduction's partials merge in HLOP-ID order from the round's
	// scratch: a warm merge allocates only the 1×1 result it hands back.
	sum, err := vop.New(vop.OpReduceSum, a)
	if err != nil {
		t.Fatal(err)
	}
	hs, err = hlop.Partition(sum, hlop.Spec{TargetPartitions: 8, MinVectorElems: 8})
	if err != nil || len(hs) < 2 {
		t.Fatalf("%d HLOPs: %v", len(hs), err)
	}
	done, saved = make([]doneHLOP, len(hs)), make([][]*tensor.Matrix, len(hs))
	var want float64
	for i, h := range hs {
		done[len(hs)-1-i] = doneHLOP{h: h} // out of ID order, as completion leaves them
		saved[i] = h.Inputs
		want += float64(h.ID + 1)
	}
	var merged *tensor.Matrix
	allocs = testing.AllocsPerRun(50, func() {
		for i, h := range hs {
			h.Inputs = saved[i]
			h.Result = tensor.GetMatrixUninit(1, 1)
			h.Result.Data[0] = float64(h.ID + 1)
		}
		merged, _, aggErr = r.aggregate(sum, done, nil)
	})
	if aggErr != nil || merged.Data[0] != want {
		t.Fatalf("merged %v, want %v: %v", merged.Data, want, aggErr)
	}
	if allocs > 2 {
		t.Fatalf("a warm reduction merge allocated %.1f times per run; want only its 1×1 result, 2", allocs)
	}
}
