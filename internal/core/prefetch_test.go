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
	"shmt/internal/sched"
	"shmt/internal/telemetry"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// runPrefetch runs a fresh engine over reg with the resident cache off or
// on; every call gets its own VOP over the shared (never mutated) inputs.
func runPrefetch(t testing.TB, reg *device.Registry, pol sched.Policy,
	op vop.Opcode, inputs []*tensor.Matrix, attrs map[string]float64,
	parts int, resident bool) *Report {
	t.Helper()
	v, err := vop.New(op, inputs...)
	if err != nil {
		t.Fatalf("vop.New(%s): %v", op, err)
	}
	for k, x := range attrs {
		v.SetAttr(k, x)
	}
	e := &Engine{Reg: reg, Policy: pol,
		Spec:         hlop.Spec{TargetPartitions: parts, MinTile: 8, MinVectorElems: 32},
		DoubleBuffer: true, Prefetch: resident, Seed: 7}
	rep, err := e.Run(v)
	if err != nil {
		t.Fatalf("run %s (resident=%v): %v", op, resident, err)
	}
	return rep
}

// Property (ISSUE 8 acceptance): the resident shared-operand cache only
// changes how often a shared operand is cast, never what the cast is. For
// random opcodes, partition counts and device mixes:
//
//   - outputs are bit-identical to the cache-off run,
//   - exposed communication time never exceeds raw transfer time, and
//   - the virtual timeline is untouched (the cache is a wall-clock
//     optimization; makespans match exactly).
func TestPropertyPrefetchBitIdentity(t *testing.T) {
	ops := []vop.Opcode{
		vop.OpSqrt, vop.OpTanh, vop.OpRelu, vop.OpAdd, vop.OpMultiply,
		vop.OpSobel, vop.OpLaplacian, vop.OpMeanFilter, vop.OpSRAD,
		vop.OpDCT8x8, vop.OpFDWT97, vop.OpFFT, vop.OpParabolicPDE,
		vop.OpReduceSum, vop.OpReduceMax, vop.OpReduceAverage,
		vop.OpGEMM, vop.OpStencil, vop.OpConv,
	}
	tpuOnly, err := device.NewRegistry(cpu.New(1), tpu.New(tpu.Config{}))
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

		parts := 1 + r.Intn(12)
		reg, pol := tpuOnly, row("tpu-only").Policy
		if r.Intn(2) == 0 {
			reg, pol = mixed, row("work-stealing").Policy
		}

		base := runPrefetch(t, reg, pol, op, inputs, attrs, parts, false)
		res := runPrefetch(t, reg, pol, op, inputs, attrs, parts, true)
		if !bitEqual(res.Output, base.Output) {
			t.Logf("op=%s seed=%d parts=%d %s: the resident cache changed the output", op, seed, parts, pol.Name)
			return false
		}
		for _, rep := range []*Report{base, res} {
			if rep.Comm.ExposedTime > rep.Comm.TransferTime+1e-12 {
				t.Logf("op=%s seed=%d: exposed %g > transfer %g",
					op, seed, rep.Comm.ExposedTime, rep.Comm.TransferTime)
				return false
			}
		}
		if res.Makespan != base.Makespan {
			t.Logf("op=%s seed=%d: the resident cache moved the virtual makespan %g -> %g",
				op, seed, base.Makespan, res.Makespan)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestPrefetcherResidentReuse: over small GEMM HLOPs that share one
// right-hand operand (the band partitioner's layout), a staged set
// materializes the private operand and takes the shared one from the
// resident cache, the same cast serving every HLOP, and draining the cache
// returns the gauge to where it was.
func TestPrefetcherResidentReuse(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	base := telemetry.PrefetchBufferBytes.Value()
	tp := tpu.New(tpu.Config{})
	r := rand.New(rand.NewSource(3))
	b := tensor.NewMatrix(6, 6)
	for i := range b.Data {
		b.Data[i] = r.NormFloat64()
	}
	hs := make([]*hlop.HLOP, 3)
	for i := range hs {
		a := tensor.NewMatrix(4, 6)
		for j := range a.Data {
			a.Data[j] = r.NormFloat64()
		}
		hs[i] = &hlop.HLOP{ID: i, Op: vop.OpGEMM, Inputs: []*tensor.Matrix{a, b}, AssignedQueue: 1}
	}
	pf := new(prefetcher).census(hs)

	st := pf.stageSet(tp, 1, hs[0])
	if len(st.Inputs) != 2 || st.Inputs[0] == hs[0].Inputs[0] || st.Keep[0] {
		t.Fatalf("private operand not materialized into an owned buffer: %+v", st)
	}
	if !st.Keep[1] {
		t.Fatal("shared operand not marked resident")
	}
	st2 := pf.stageSet(tp, 1, hs[2])
	if st2.Inputs[1] != st.Inputs[1] {
		t.Fatal("shared operand staged twice instead of reused")
	}
	st.Release()
	st2.Release()
	pf.drain()
	if g := telemetry.PrefetchBufferBytes.Value(); g != base {
		t.Fatalf("buffer gauge %d after drain, %d before", g, base)
	}
}

func TestPrefetcherDisabledIsNilSafe(t *testing.T) {
	reg, _ := device.NewRegistry(cpu.New(1))
	m := tensor.NewMatrix(2, 2)
	hs := []*hlop.HLOP{{Inputs: []*tensor.Matrix{m}}, {Inputs: []*tensor.Matrix{m}}}
	r := (&Engine{Reg: reg}).takeRound()
	if r.start(sched.Policy{}, hs, 0, nil); r.pf != nil {
		t.Fatal("Prefetch off should disable the prefetcher")
	}
	pf := new(prefetcher).census(hs[:1])
	if pf != nil {
		t.Fatal("a round that shares no operand needs no prefetcher")
	}
	if pf.wantsStaged(nil) {
		t.Fatal("nil prefetcher not inert")
	}
	r.warm()
	pf.drain()
}
