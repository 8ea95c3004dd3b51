package sched

import (
	"slices"
	"testing"

	"shmt/internal/device"
	"shmt/internal/device/cpu"
	"shmt/internal/device/gpu"
	"shmt/internal/device/tpu"
	"shmt/internal/hlop"
	"shmt/internal/vop"
	"shmt/internal/workload"
)

// testCtx builds the standard cpu/gpu/tpu context (queue indices 0/1/2).
func testCtx(t *testing.T) *Context {
	t.Helper()
	reg, err := device.NewRegistry(cpu.New(1), gpu.New(gpu.Config{}), tpu.New(tpu.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	return &Context{Reg: reg, Seed: 1}
}

// row returns the Table row named key.
func row(t testing.TB, key string) Row {
	t.Helper()
	r, ok := Lookup(key)
	if !ok {
		t.Fatalf("no policy row %q", key)
	}
	return r
}

// partitioned builds HLOPs over a Mixed workload with criticality structure
// (a modest critical fraction keeps the median criticality at background
// level, which the relative device-limit policy depends on).
func partitioned(t *testing.T, parts int) []*hlop.HLOP {
	t.Helper()
	m := workload.Mixed(256, 256, workload.Profile{CriticalFraction: 0.15, TileSize: 64}, 3)
	v, err := vop.New(vop.OpSobel, m)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := hlop.Partition(v, hlop.Spec{TargetPartitions: parts, MinTile: 8})
	if err != nil {
		t.Fatal(err)
	}
	return hs
}

func TestContextEligibleExcludesCPU(t *testing.T) {
	ctx := testCtx(t)
	el := ctx.Eligible()
	if len(el) != 2 {
		t.Fatalf("eligible = %v", el)
	}
	for _, i := range el {
		if ctx.Reg.Get(i).Kind() == device.CPU {
			t.Fatal("CPU must not take kernel work when accelerators exist")
		}
	}
	if ctx.IsEligible(ctx.Reg.Index("cpu")) {
		t.Fatal("CPU should not be eligible")
	}
	if !ctx.IsEligible(ctx.Reg.Index("gpu")) {
		t.Fatal("GPU should be eligible")
	}
}

func TestContextEligibleFallsBackToCPU(t *testing.T) {
	reg, _ := device.NewRegistry(cpu.New(1))
	ctx := &Context{Reg: reg}
	if el := ctx.Eligible(); len(el) != 1 || el[0] != 0 {
		t.Fatalf("cpu-only eligible = %v", el)
	}
}

// TestContextEligibleQuarantineTiers walks the breaker-driven eligibility
// tiers: healthy accelerators, then any healthy device (the CPU absorbs
// kernel work), then — when everything is quarantined — the raw accelerator
// set so assignments still land somewhere.
func TestContextEligibleQuarantineTiers(t *testing.T) {
	ctx := testCtx(t)
	cpuIdx, gpuIdx, tpuIdx := ctx.Reg.Index("cpu"), ctx.Reg.Index("gpu"), ctx.Reg.Index("tpu")
	quar := map[int]bool{}
	ctx.Quarantined = func(i int) bool { return quar[i] }

	if el := ctx.Eligible(); len(el) != 2 {
		t.Fatalf("healthy eligible = %v", el)
	}
	// One accelerator down: the other carries the kernel work alone.
	quar[gpuIdx] = true
	if el := ctx.Eligible(); len(el) != 1 || el[0] != tpuIdx {
		t.Fatalf("eligible with gpu quarantined = %v, want [%d]", el, tpuIdx)
	}
	if ctx.IsEligible(gpuIdx) {
		t.Fatal("quarantined GPU must not be eligible")
	}
	// All accelerators down: the CPU absorbs.
	quar[tpuIdx] = true
	if el := ctx.Eligible(); len(el) != 1 || el[0] != cpuIdx {
		t.Fatalf("eligible with all accelerators quarantined = %v, want cpu", el)
	}
	// Everything down: the raw accelerator set comes back so the dispatch
	// failure surfaces on a real device instead of deadlocking assignment.
	quar[cpuIdx] = true
	if el := ctx.Eligible(); len(el) != 2 {
		t.Fatalf("eligible with everything quarantined = %v, want raw accelerators", el)
	}

	// StealableVictim mirrors the hook: quarantined queues keep their
	// backlog as probe fodder.
	if ctx.StealableVictim(gpuIdx) {
		t.Fatal("quarantined queue must not be stolen from")
	}
	delete(quar, gpuIdx)
	if !ctx.StealableVictim(gpuIdx) {
		t.Fatal("healthy queue must be stealable")
	}
	// A nil hook means nothing is quarantined.
	ctx.Quarantined = nil
	if !ctx.StealableVictim(tpuIdx) || !ctx.IsEligible(tpuIdx) {
		t.Fatal("nil Quarantined hook must quarantine nothing")
	}
}

func TestSingleDevice(t *testing.T) {
	ctx := testCtx(t)
	hs := partitioned(t, 8)
	p := row(t, "tpu-only").Policy
	if p.Name != "tpu-only" {
		t.Fatalf("name = %q", p.Name)
	}
	ovh, err := p.Assign(ctx, hs)
	if err != nil || ovh != 0 {
		t.Fatalf("assign: %v / %g", err, ovh)
	}
	tq := ctx.Reg.Index("tpu")
	for _, h := range hs {
		if h.AssignedQueue != tq {
			t.Fatal("not all HLOPs on the tpu queue")
		}
	}
	if p.Steal != NoSteal || p.CanSteal(ctx, 1, 2, hs[0]) {
		t.Fatal("single-device policy must not steal")
	}
	if _, err := (Policy{Device: "dsp"}).Assign(ctx, hs); err == nil {
		t.Fatal("unknown device should error")
	}
}

func TestEvenDistribution(t *testing.T) {
	ctx := testCtx(t)
	hs := partitioned(t, 8)
	p := row(t, "even-distribution").Policy
	if _, err := p.Assign(ctx, hs); err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, h := range hs {
		counts[h.AssignedQueue]++
	}
	g, tq := ctx.Reg.Index("gpu"), ctx.Reg.Index("tpu")
	if d := counts[g] - counts[tq]; d < -1 || d > 1 {
		t.Fatalf("uneven split: %v", counts)
	}
	if counts[ctx.Reg.Index("cpu")] != 0 {
		t.Fatal("CPU must not receive kernel HLOPs")
	}
	if p.Steal != NoSteal {
		t.Fatal("even distribution must not steal")
	}
}

func TestWorkStealingPermissions(t *testing.T) {
	ctx := testCtx(t)
	hs := partitioned(t, 8)
	p := row(t, "work-stealing").Policy
	if _, err := p.Assign(ctx, hs); err != nil {
		t.Fatal(err)
	}
	c, g, tq := ctx.Reg.Index("cpu"), ctx.Reg.Index("gpu"), ctx.Reg.Index("tpu")
	if !p.CanSteal(ctx, g, tq, hs[0]) || !p.CanSteal(ctx, tq, g, hs[0]) {
		t.Fatal("accelerators should steal freely under basic work stealing")
	}
	if p.CanSteal(ctx, c, g, hs[0]) {
		t.Fatal("the CPU must not steal kernel work")
	}
	if p.CanSteal(ctx, g, g, hs[0]) {
		t.Fatal("self-steal should be forbidden")
	}
}

// TestQAWSNames pins every row's Name — the label reports, plan-cache keys,
// Session.PolicyName and /statusz carry — including the two rows that share
// "gpu-only".
func TestQAWSNames(t *testing.T) {
	for _, r := range Table {
		want := r.Key
		switch {
		case r.Key == "gpu-baseline" || r.Key == "sw-pipelining":
			want = "gpu-only"
		case r.Policy.Source == Sampled:
			prefix := "QAWS-T"
			if r.Policy.Assignment == DeviceLimits {
				prefix = "QAWS-L"
			}
			tail := ""
			if r.Policy.Adaptive {
				tail = "/adaptive"
				// A batch runs the partitioned branch under the base row's
				// name, and so under its plan-cache keys.
				base, _ := Lookup(prefix + suffix(r.Policy.Method))
				if r.Policy.Partitioned() != base.Policy {
					t.Errorf("row %q: partitioned branch %+v, want row %q's %+v", r.Key, r.Policy.Partitioned(), base.Key, base.Policy)
				}
			} else if r.Policy.Partitioned() != r.Policy {
				t.Errorf("row %q: Partitioned changed a policy that does not price", r.Key)
			}
			if r.Key != prefix+suffix(r.Policy.Method)+tail {
				t.Errorf("row %q is %s × %s", r.Key, prefix, r.Policy.Method)
			}
		}
		if r.Policy.Name != want {
			t.Errorf("row %q: name = %q want %q", r.Key, r.Policy.Name, want)
		}
	}
	if len(Table) != 15 {
		t.Fatalf("%d rows, want the twelve paper policies, cpu-only, sw-pipelining and QAWS-TS/adaptive", len(Table))
	}
}

func TestQAWSTopKRoutesCriticalToGPU(t *testing.T) {
	ctx := testCtx(t)
	hs := partitioned(t, 16)
	p := row(t, "QAWS-TS").Tuned(0.01)
	ovh, err := p.Assign(ctx, hs)
	if err != nil {
		t.Fatal(err)
	}
	if ovh <= 0 {
		t.Fatal("sampling must cost something")
	}
	g, tq := ctx.Reg.Index("gpu"), ctx.Reg.Index("tpu")
	var nCrit int
	for _, h := range hs {
		if h.Critical {
			nCrit++
			if h.AssignedQueue != g {
				t.Fatal("critical partition not on the accurate device")
			}
		} else if h.AssignedQueue != tq {
			t.Fatal("non-critical partition not on the TPU queue")
		}
	}
	if want := 4; nCrit != want { // 25% of 16
		t.Fatalf("critical count = %d want %d", nCrit, want)
	}
	// Ranking correctness: every critical partition must out-rank every
	// non-critical one within the (single) window.
	minCrit, maxNon := 1e300, -1e300
	for _, h := range hs {
		if h.Critical && h.Criticality < minCrit {
			minCrit = h.Criticality
		}
		if !h.Critical && h.Criticality > maxNon {
			maxNon = h.Criticality
		}
	}
	if minCrit < maxNon {
		t.Fatalf("top-K ranking violated: %g < %g", minCrit, maxNon)
	}
}

func TestQAWSDeviceLimits(t *testing.T) {
	// Exercise Algorithm 1 directly on known criticalities: 12 background
	// partitions (criticality ~1) and 4 wide ones (~10); the derived limit
	// is 4x the median, so the wide ones must land on the GPU.
	ctx := testCtx(t)
	var hs []*hlop.HLOP
	for i := 0; i < 16; i++ {
		h := &hlop.HLOP{ID: i, Criticality: 1}
		if i%4 == 0 {
			h.Criticality = 10
		}
		hs = append(hs, h)
	}
	Policy{Assignment: DeviceLimits, TPULimit: 4}.assignLimits(ctx.EligibleFor(hs[0].Op), hs)
	g, tq := ctx.Reg.Index("gpu"), ctx.Reg.Index("tpu")
	for _, h := range hs {
		if h.Criticality == 10 && h.AssignedQueue != g {
			t.Fatal("wide partition not routed to the accurate device")
		}
		if h.Criticality == 1 && h.AssignedQueue != tq {
			t.Fatal("background partition not routed to the TPU")
		}
	}
}

func TestQAWSDeviceLimitsEndToEnd(t *testing.T) {
	// The full sampled path must still be monotone: anything on the GPU
	// ranks at or above anything on the TPU.
	ctx := testCtx(t)
	hs := partitioned(t, 16)
	p := row(t, "QAWS-LS").Tuned(0.01)
	p.TPULimit = 4
	if _, err := p.Assign(ctx, hs); err != nil {
		t.Fatal(err)
	}
	g, tq := ctx.Reg.Index("gpu"), ctx.Reg.Index("tpu")
	for _, a := range hs {
		if a.AssignedQueue != g {
			continue
		}
		for _, b := range hs {
			if b.AssignedQueue == tq && a.Criticality < b.Criticality {
				t.Fatal("limit threshold not monotone")
			}
		}
	}
}

func TestQAWSStealOnlyTowardAccuracy(t *testing.T) {
	ctx := testCtx(t)
	p := row(t, "QAWS-TS").Policy
	h := &hlop.HLOP{Op: vop.OpSobel}
	g, tq := ctx.Reg.Index("gpu"), ctx.Reg.Index("tpu")
	if !p.CanSteal(ctx, g, tq, h) {
		t.Fatal("the GPU must be able to drain the TPU's queue")
	}
	if p.CanSteal(ctx, tq, g, h) {
		t.Fatal("the TPU must never steal GPU-protected work")
	}
	if p.CanSteal(ctx, ctx.Reg.Index("cpu"), tq, h) {
		t.Fatal("the CPU must not steal kernel work")
	}
}

func TestQAWSSamplingOverheadOrdering(t *testing.T) {
	ctx := testCtx(t)
	rate := 1.0 / (1 << 8)
	var overheads []float64
	for _, key := range []string{"QAWS-TS", "QAWS-TU", "QAWS-TR"} {
		hs := partitioned(t, 16)
		ovh, err := row(t, key).Tuned(rate).Assign(ctx, hs)
		if err != nil {
			t.Fatal(err)
		}
		overheads = append(overheads, ovh)
	}
	if !(overheads[0] < overheads[1]) {
		t.Fatalf("striding %g should be cheaper than uniform %g", overheads[0], overheads[1])
	}
	if !(overheads[1] < overheads[2]) {
		t.Fatalf("uniform %g should be cheaper than reduction %g (the paper's slowest)", overheads[1], overheads[2])
	}
}

func TestIRAOverheadDominates(t *testing.T) {
	// At the paper's scale (virtual slowdown 64 standing in for full-size
	// partitions), IRA's canary computation dwarfs QAWS's sampling.
	reg, err := device.NewRegistry(cpu.New(64), gpu.New(gpu.Config{Slowdown: 64}), tpu.New(tpu.Config{Slowdown: 64}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Context{Reg: reg, Seed: 1, HostScale: 64}
	ira := row(t, "IRA-sampling").Policy
	iraOvh, err := ira.Assign(ctx, partitioned(t, 16))
	if err != nil {
		t.Fatal(err)
	}
	qawsOvh, _ := row(t, "QAWS-TS").Policy.Assign(ctx, partitioned(t, 16))
	if iraOvh <= 5*qawsOvh {
		t.Fatalf("IRA canary computation (%g) should dwarf QAWS sampling (%g)", iraOvh, qawsOvh)
	}
	if ira.Steal == NoSteal {
		t.Fatal("IRA schedules on top of work stealing")
	}
}

func TestOracleUsesFullScanAndChargesNothing(t *testing.T) {
	ctx := testCtx(t)
	hs := partitioned(t, 16)
	o := row(t, "oracle").Tuned(0)
	ovh, err := o.Assign(ctx, hs)
	if err != nil {
		t.Fatal(err)
	}
	if ovh != 0 {
		t.Fatalf("oracle overhead = %g want 0", ovh)
	}
	if o.Steal != NoSteal {
		t.Fatal("oracle fixes the mapping")
	}
	// Global top-K by exact criticality must be on the GPU.
	g := ctx.Reg.Index("gpu")
	var critOnGPU int
	for _, h := range hs {
		if h.Critical {
			critOnGPU++
			if h.AssignedQueue != g {
				t.Fatal("oracle-critical partition not on GPU")
			}
		}
	}
	if critOnGPU != 4 {
		t.Fatalf("oracle critical count = %d", critOnGPU)
	}
}

func TestValidateQueuesRejectsBadAssignment(t *testing.T) {
	ctx := testCtx(t)
	hs := partitioned(t, 4)
	hs[0].AssignedQueue = 99
	if err := validateQueues(ctx, hs); err == nil {
		t.Fatal("invalid queue index should be rejected")
	}
}

func TestEmptyAssignments(t *testing.T) {
	ctx := testCtx(t)
	for _, r := range Table {
		if ovh, err := r.Policy.Assign(ctx, nil); err != nil || ovh != 0 {
			t.Fatalf("%s empty assign: %g, %v", r.Key, ovh, err)
		}
	}
}

func TestHostScaleMultipliesOverhead(t *testing.T) {
	base := testCtx(t)
	scaled := testCtx(t)
	scaled.HostScale = 16
	p := row(t, "QAWS-TS").Tuned(0.01)
	a, _ := p.Assign(base, partitioned(t, 8))
	b, _ := p.Assign(scaled, partitioned(t, 8))
	if b <= a {
		t.Fatalf("host scale should inflate overhead: %g vs %g", a, b)
	}
}

// eligibleBySlices is Eligible as it was written before IsEligible stopped
// building slices: the oracle for the tier arithmetic.
func eligibleBySlices(c *Context) []int {
	var accel, accelOK, anyOK []int
	for i, d := range c.Reg.Devices() {
		q := c.InQuarantine(i)
		if d.Kind() != device.CPU {
			accel = append(accel, i)
			if !q {
				accelOK = append(accelOK, i)
			}
		}
		if !q {
			anyOK = append(anyOK, i)
		}
	}
	switch {
	case len(accelOK) > 0:
		return accelOK
	case len(anyOK) > 0:
		return anyOK
	case len(accel) > 0:
		return accel
	}
	idx := make([]int, c.Reg.Len())
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// TestEligibleMatchesTheSliceOracle: over every quarantine pattern of a CPU
// + accelerators registry, of an accelerator-only one and of a CPU alone,
// Eligible returns the oracle's set in its order, IsEligible is membership in
// it, and IsEligible allocates nothing.
func TestEligibleMatchesTheSliceOracle(t *testing.T) {
	accelOnly, err := device.NewRegistry(gpu.New(gpu.Config{}), tpu.New(tpu.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	cpuOnly, _ := device.NewRegistry(cpu.New(1))
	for _, reg := range []*device.Registry{testCtx(t).Reg, accelOnly, cpuOnly} {
		for mask := 0; mask < 1<<reg.Len(); mask++ {
			ctx := &Context{Reg: reg, Quarantined: func(i int) bool { return mask>>i&1 == 1 }}
			want := eligibleBySlices(ctx)
			if got := ctx.Eligible(); !slices.Equal(got, want) {
				t.Fatalf("%d devices, quarantine mask %b: eligible %v, want %v", reg.Len(), mask, got, want)
			}
			for i := 0; i < reg.Len(); i++ {
				if got := ctx.IsEligible(i); got != slices.Contains(want, i) {
					t.Fatalf("%d devices, quarantine mask %b: IsEligible(%d) = %v, eligible %v", reg.Len(), mask, i, got, want)
				}
			}
			if n := testing.AllocsPerRun(10, func() { ctx.IsEligible(0) }); n != 0 {
				t.Fatalf("IsEligible allocates %v times", n)
			}
		}
	}
}
