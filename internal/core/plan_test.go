package core

// Tests for the memoized execution-plan layer (plancache.go + hlop.Replay):
// replayed plans must be bit-identical to cold-planned runs across the whole
// opcode × partitioner × device-mix × worker-count space, the LRU bound and
// key composition must behave, and — the correctness-critical part — a
// circuit-breaker transition must invalidate cached plans so a replay can
// never dispatch to a quarantined device.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"shmt/internal/chaos"
	"shmt/internal/device"
	"shmt/internal/device/cpu"
	"shmt/internal/device/gpu"
	"shmt/internal/device/tpu"
	"shmt/internal/hlop"
	"shmt/internal/parallel"
	"shmt/internal/sched"
	"shmt/internal/tensor"
	"shmt/internal/vop"
	"shmt/internal/workload"
)

// runPlanned executes op on e (building a fresh VOP over the shared input
// matrices, as runSpec does) and returns the output.
func runPlanned(t testing.TB, e *Engine, op vop.Opcode,
	inputs []*tensor.Matrix, attrs map[string]float64) *tensor.Matrix {
	t.Helper()
	v, err := vop.New(op, inputs...)
	if err != nil {
		t.Fatalf("vop.New(%s): %v", op, err)
	}
	for k, x := range attrs {
		v.SetAttr(k, x)
	}
	rep, err := e.Run(v)
	if err != nil {
		t.Fatalf("run %s: %v", op, err)
	}
	return rep.Output
}

// Property: replaying a memoized plan is bit-identical to planning from
// scratch, for every opcode, partitioner geometry, device mix, scheduling
// policy, and host worker count. The cached engine runs the same VOP twice
// (the second run replays); a cache-less engine provides the fresh baseline.
// The deterministic engine gives all runs the same schedule, so any output
// difference can only come from the plan capture/replay path.
func TestPropertyPlanReplayBitIdentity(t *testing.T) {
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

		var reg *device.Registry
		var pol sched.Policy
		switch r.Intn(3) {
		case 0:
			reg, pol = cpuOnly, row("cpu-only").Policy
		case 1:
			reg, pol = mixed, row("work-stealing").Policy
		default:
			// Data-dependent policy: with identical inputs the captured
			// criticality must equal a fresh sampling pass.
			reg, pol = mixed, row("QAWS-TS").Policy
		}
		spec := hlop.Spec{
			TargetPartitions: 1 + r.Intn(12),
			MinTile:          8,
			MinVectorElems:   32,
		}
		prev := parallel.SetWorkers(1 + r.Intn(8))
		defer parallel.SetWorkers(prev)

		cached := &Engine{Reg: reg, Policy: pol, Spec: spec, Seed: 7, PlanCacheEntries: 8}
		fresh := &Engine{Reg: reg, Policy: pol, Spec: spec, Seed: 7}
		cold := runPlanned(t, cached, op, inputs, attrs)
		replay := runPlanned(t, cached, op, inputs, attrs)
		base := runPlanned(t, fresh, op, inputs, attrs)
		if st := cached.PlanCacheStats(); st.Hits < 1 {
			t.Logf("op=%s seed=%d: second run did not replay (stats %+v)", op, seed, st)
			return false
		}
		if !replay.Equal(cold) || !replay.Equal(base) {
			t.Logf("op=%s seed=%d parts=%d: replay diverged",
				op, seed, spec.TargetPartitions)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestPlanCacheChaosDeathInvalidates warms the plan cache, kills a device so
// its breaker opens mid-run, and checks the epoch guard end to end: the next
// lookup must drop the stale plan (it assigns work to the now-quarantined
// device) and re-plan around the dead device — the replayed run must show
// zero failed dispatches — and the re-plan must re-warm the cache for the
// runs after it.
func TestPlanCacheChaosDeathInvalidates(t *testing.T) {
	wrapped := chaos.Wrap(gpu.New(gpu.Config{}), chaos.Config{Seed: 7, DieAfterOps: 2})
	reg, err := device.NewRegistry(cpu.New(1), wrapped)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Reg: reg, Policy: row("work-stealing").Policy, Spec: chaosHLOPSpec, PlanCacheEntries: 8}

	// Run 1 populates the cache and kills the GPU mid-run: the stored
	// plan routes HLOPs to a device that is quarantined by the time the
	// run ends, and the breaker transition advanced the health epoch.
	rep1, err := e.Run(sobelVOP(t, 64, 90))
	if err != nil {
		t.Fatalf("death run failed: %v", err)
	}
	if rep1.Degraded == nil || len(rep1.Degraded.Quarantines) == 0 {
		t.Fatalf("GPU death not quarantined: %+v", rep1.Degraded)
	}
	if quar := e.QuarantinedDevices(); len(quar) != 1 || quar[0] != "gpu" {
		t.Fatalf("want gpu quarantined, got %v", quar)
	}

	// Run 2 must invalidate (epoch moved), not replay the stale plan: a
	// fresh planning pass sees the quarantine and routes around the dead
	// GPU, so nothing is dispatched to it and nothing degrades.
	rep2, err := e.Run(sobelVOP(t, 64, 90))
	if err != nil {
		t.Fatalf("post-death run failed: %v", err)
	}
	st := e.PlanCacheStats()
	if st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1 (stats %+v)", st.Invalidations, st)
	}
	if st.Hits != 0 {
		t.Fatalf("stale plan replayed: %+v", st)
	}
	if d := rep2.Degraded; d != nil {
		t.Fatalf("re-planned run still touched the dead device: %+v", d)
	}

	// Run 3 replays the re-warmed plan — and still avoids the dead GPU.
	rep3, err := e.Run(sobelVOP(t, 64, 90))
	if err != nil {
		t.Fatalf("replay run failed: %v", err)
	}
	if st := e.PlanCacheStats(); st.Hits != 1 {
		t.Fatalf("re-warmed plan not replayed: %+v", st)
	}
	if d := rep3.Degraded; d != nil {
		t.Fatalf("replayed plan touched the dead device: %+v", d)
	}
	if !rep3.Output.Equal(rep2.Output) {
		t.Fatal("replay diverged from the re-planned run")
	}
}

// TestPlanCacheChaosReadmitInvalidates drives a transient outage: the
// breaker opens and the probe re-admits the device within one run, each
// advancing the health epoch. The cached plan must be invalidated (it was
// captured before the outage), and the re-plan — against the recovered,
// full-strength device set — re-warms the cache.
func TestPlanCacheChaosReadmitInvalidates(t *testing.T) {
	wrapped := chaos.Wrap(tpu.New(tpu.Config{}), chaos.Config{Seed: 5, FailFirstOps: 3})
	reg, err := device.NewRegistry(cpu.New(1), wrapped)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Reg: reg, Policy: row("work-stealing").Policy, Spec: chaosHLOPSpec,
		resilience: resilience{MaxRetries: 16}, PlanCacheEntries: 8}

	rep1, err := e.Run(sobelVOP(t, 128, 94))
	if err != nil {
		t.Fatalf("outage run failed: %v", err)
	}
	d := rep1.Degraded
	if d == nil || len(d.Quarantines) == 0 || d.ProbeSuccesses == 0 {
		t.Fatalf("want quarantine + re-admission, got %+v", d)
	}
	if quar := e.QuarantinedDevices(); len(quar) != 0 {
		t.Fatalf("device not re-admitted: %v", quar)
	}

	// The open->probe->re-admit cycle moved the epoch (twice); the plan
	// captured before the outage must not replay.
	rep2, err := e.Run(sobelVOP(t, 128, 94))
	if err != nil {
		t.Fatalf("post-outage run failed: %v", err)
	}
	st := e.PlanCacheStats()
	if st.Invalidations != 1 || st.Hits != 0 {
		t.Fatalf("want 1 invalidation and no hits, got %+v", st)
	}
	if rep2.Degraded != nil {
		t.Fatalf("recovered device faulted again: %+v", rep2.Degraded)
	}

	// Steady state after recovery: the re-warmed plan replays.
	rep3, err := e.Run(sobelVOP(t, 128, 94))
	if err != nil {
		t.Fatalf("replay run failed: %v", err)
	}
	if st := e.PlanCacheStats(); st.Hits != 1 {
		t.Fatalf("re-warmed plan not replayed: %+v", st)
	}
	if !rep3.Output.Equal(rep2.Output) {
		t.Fatal("replay diverged after re-admission")
	}
}

// TestPlanCacheLRUEviction bounds the cache at two entries and streams three
// distinct shapes: the oldest plan must be evicted, and re-running its shape
// must miss (not resurrect stale state).
func TestPlanCacheLRUEviction(t *testing.T) {
	reg, err := device.NewRegistry(cpu.New(1))
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Reg: reg, Policy: row("cpu-only").Policy,
		Spec:             hlop.Spec{TargetPartitions: 4, MinTile: 8, MinVectorElems: 32},
		PlanCacheEntries: 2}
	shape := func(rows int) []*tensor.Matrix {
		m := tensor.NewMatrix(rows, 16)
		for i := range m.Data {
			m.Data[i] = float64(i % 13)
		}
		return []*tensor.Matrix{m}
	}
	s16, s24, s32 := shape(16), shape(24), shape(32)

	runPlanned(t, e, vop.OpRelu, s16, nil) // miss, cache {16}
	runPlanned(t, e, vop.OpRelu, s24, nil) // miss, cache {16,24}
	runPlanned(t, e, vop.OpRelu, s32, nil) // miss, evicts 16
	st := e.PlanCacheStats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("after 3 shapes: %+v, want 2 entries / 1 eviction", st)
	}
	runPlanned(t, e, vop.OpRelu, s16, nil) // miss again: 16 was evicted
	st = e.PlanCacheStats()
	if st.Hits != 0 || st.Misses != 4 || st.Evictions != 2 {
		t.Fatalf("evicted shape must re-miss: %+v", st)
	}
	runPlanned(t, e, vop.OpRelu, s16, nil) // now a hit
	if st = e.PlanCacheStats(); st.Hits != 1 {
		t.Fatalf("re-warmed shape must hit: %+v", st)
	}
}

// planKey is appendPlanKey as a string.
func (e *Engine) planKey(v *vop.VOP, pol sched.Policy) string {
	return string(e.appendPlanKey(nil, v, pol))
}

// TestPlanKeyComposition checks that every component the plan is a function
// of changes the key — and that irrelevant differences (fresh matrices of
// the same shape) do not.
func TestPlanKeyComposition(t *testing.T) {
	mk := func(rows, cols int) *tensor.Matrix { return tensor.NewMatrix(rows, cols) }
	newVOP := func(op vop.Opcode, ins ...*tensor.Matrix) *vop.VOP {
		v, err := vop.New(op, ins...)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	base := &Engine{Seed: 1, Spec: hlop.Spec{TargetPartitions: 8}}
	pol := row("work-stealing").Policy
	key := base.planKey(newVOP(vop.OpAdd, mk(32, 32), mk(32, 32)), pol)

	if got := base.planKey(newVOP(vop.OpAdd, mk(32, 32), mk(32, 32)), pol); got != key {
		t.Fatalf("same shape, fresh matrices: key changed\n%s\n%s", key, got)
	}
	distinct := map[string]string{"base": key}
	add := func(name, k string) {
		for prev, pk := range distinct {
			if pk == k {
				t.Fatalf("%s collides with %s: %s", name, prev, k)
			}
		}
		distinct[name] = k
	}
	add("opcode", base.planKey(newVOP(vop.OpMultiply, mk(32, 32), mk(32, 32)), pol))
	add("shape", base.planKey(newVOP(vop.OpAdd, mk(48, 32), mk(48, 32)), pol))
	add("policy", base.planKey(newVOP(vop.OpAdd, mk(32, 32), mk(32, 32)), row("QAWS-TS").Policy))
	seeded := &Engine{Seed: 2, Spec: base.Spec}
	add("seed", seeded.planKey(newVOP(vop.OpAdd, mk(32, 32), mk(32, 32)), pol))
	respec := &Engine{Seed: 1, Spec: hlop.Spec{TargetPartitions: 16}}
	add("spec", respec.planKey(newVOP(vop.OpAdd, mk(32, 32), mk(32, 32)), pol))
	attred := newVOP(vop.OpStencil, mk(32, 32), mk(32, 32))
	attred.SetAttr("steps", 2)
	attred2 := newVOP(vop.OpStencil, mk(32, 32), mk(32, 32))
	attred2.SetAttr("steps", 3)
	add("attrs", base.planKey(attred, pol))
	add("attrs-value", base.planKey(attred2, pol))
	pressured := newVOP(vop.OpAdd, mk(32, 32), mk(32, 32))
	pressured.DeadlinePressure = 0.5
	add("deadline-pressure", base.planKey(pressured, pol))
	pressured2 := newVOP(vop.OpAdd, mk(32, 32), mk(32, 32))
	pressured2.DeadlinePressure = 0.75
	add("deadline-pressure-value", base.planKey(pressured2, pol))
}

// TestPlanCacheBatchReplay runs the same micro-batch twice through RunBatch:
// the second round must replay every VOP's plan and produce bit-identical
// outputs. Identical VOPs inside one batch share a key, so the second VOP of
// the first round already replays the first's plan.
func TestPlanCacheBatchReplay(t *testing.T) {
	reg, err := device.NewRegistry(cpu.New(1), gpu.New(gpu.Config{}), tpu.New(tpu.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	mk := func(seed int64) *tensor.Matrix {
		r := rand.New(rand.NewSource(seed))
		m := tensor.NewMatrix(64, 64)
		for i := range m.Data {
			m.Data[i] = r.NormFloat64()
		}
		return m
	}
	batch := func() []*vop.VOP {
		v1, _ := vop.New(vop.OpRelu, mk(1))
		v2, _ := vop.New(vop.OpRelu, mk(2)) // same shape+op as v1: same plan key
		v3, _ := vop.New(vop.OpSqrt, mk(3))
		return []*vop.VOP{v1, v2, v3}
	}
	e := &Engine{Reg: reg, Policy: row("work-stealing").Policy,
		Spec:             hlop.Spec{TargetPartitions: 8, MinTile: 8, MinVectorElems: 32},
		PlanCacheEntries: 8}
	r1, err := e.RunBatch(batch())
	if err != nil {
		t.Fatal(err)
	}
	st := e.PlanCacheStats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("first round: %+v, want the twin VOP to replay (1 hit, 2 misses)", st)
	}
	r2, err := e.RunBatch(batch())
	if err != nil {
		t.Fatal(err)
	}
	if st = e.PlanCacheStats(); st.Hits != 4 {
		t.Fatalf("second round must replay all three: %+v", st)
	}
	for i := range r1.Reports {
		if !r2.Reports[i].Output.Equal(r1.Reports[i].Output) {
			t.Fatalf("vop %d: batch replay diverged", i)
		}
	}
}

// TestPlanCacheDisabledByDefault: a zero-value core Engine plans every run
// from scratch and reports zero stats — the cache is a session-level opt-in.
func TestPlanCacheDisabledByDefault(t *testing.T) {
	reg, err := device.NewRegistry(cpu.New(1))
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Reg: reg, Policy: row("cpu-only").Policy,
		Spec: hlop.Spec{TargetPartitions: 4, MinTile: 8, MinVectorElems: 32}}
	in := tensor.NewMatrix(32, 32)
	runPlanned(t, e, vop.OpRelu, []*tensor.Matrix{in}, nil)
	runPlanned(t, e, vop.OpRelu, []*tensor.Matrix{in}, nil)
	if st := e.PlanCacheStats(); st != (PlanCacheStats{}) {
		t.Fatalf("disabled cache recorded activity: %+v", st)
	}
}

// TestPlanReplayAllocs: a warm replay allocates at most 4 times whatever the
// opcode and partition count — the plan key, the one slab every partition's
// HLOP, views and input pointers share, the HLOP pointer slice — where cold
// planning pays about 300. It holds a halo-free add, a halo Sobel (its halo
// blocks come from the arena and go back to it, as a round releases them)
// and a GEMM, whose bands pair a view of A with the whole of B. Rebinding
// one partition at a time costs allocations per partition, and shows here at
// once.
func TestPlanReplayAllocs(t *testing.T) {
	reg := stdRegistry(t)
	square := func() *tensor.Matrix { return workload.Uniform(512, 512, 0, 1, 3) }
	for _, tc := range []struct {
		op     vop.Opcode
		inputs []*tensor.Matrix
	}{
		{vop.OpAdd, []*tensor.Matrix{square(), square()}},
		{vop.OpSobel, []*tensor.Matrix{square()}},
		{vop.OpGEMM, []*tensor.Matrix{square(), square()}},
	} {
		v, err := vop.New(tc.op, tc.inputs...)
		if err != nil {
			t.Fatal(err)
		}
		for _, parts := range []int{16, 64} {
			pol := row("QAWS-TS").Policy
			e := &Engine{Reg: reg, Policy: pol, Seed: 1,
				Spec: hlop.Spec{TargetPartitions: parts}, PlanCacheEntries: 8}
			r := e.takeRound()
			plan := func() {
				hs, _, _, err := r.planVOP(pol, v, nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				if len(hs) != parts {
					t.Fatalf("%s: %d HLOPs, want %d", tc.op, len(hs), parts)
				}
				for _, h := range hs {
					releaseHLOPBuffers(v, h)
				}
			}
			plan() // cold: fills the cache
			if allocs := testing.AllocsPerRun(100, plan); allocs > 4 {
				t.Fatalf("%s, %d partitions: a replay allocates %.0f times, want at most 4", tc.op, parts, allocs)
			}
			if st := e.PlanCacheStats(); st.Hits < 100 {
				t.Fatalf("%s, %d partitions: the measured plans did not replay: %+v", tc.op, parts, st)
			}
		}
	}
}
