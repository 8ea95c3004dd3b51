package core

import (
	"errors"
	"testing"

	"shmt/internal/breaker"
	"shmt/internal/device"
	"shmt/internal/device/cpu"
	"shmt/internal/device/dsp"
	"shmt/internal/device/gpu"
	"shmt/internal/device/tpu"
	"shmt/internal/hlop"
	"shmt/internal/sched"
	"shmt/internal/vop"
)

// TestBackoffIsExponentialAndCapped: the retry backoff the engine charges
// for each consecutive failure the breaker counts never shrinks and
// saturates at BackoffCap. (The breaker's own transitions are tested in
// internal/breaker.)
func TestBackoffIsExponentialAndCapped(t *testing.T) {
	rz := resilience{BreakerThreshold: 100}.withDefaults()
	b := breaker.New(rz.BreakerThreshold, rz.BreakerCooldown, rz.CooldownCap)
	prev := 0.0
	for i := 0; i < 12; i++ {
		fails, _, _ := b.OnFailure(0)
		backoff := rz.backoff(fails)
		if backoff < prev {
			t.Fatalf("backoff shrank: %g after %g", backoff, prev)
		}
		if backoff > rz.BackoffCap {
			t.Fatalf("backoff %g exceeds cap %g", backoff, rz.BackoffCap)
		}
		prev = backoff
	}
	if prev != rz.BackoffCap {
		t.Fatalf("backoff should saturate at the cap, got %g", prev)
	}
}

// fallbackQueue edge cases.

func TestFallbackQueueNoOtherDevice(t *testing.T) {
	reg, _ := device.NewRegistry(gpu.New(gpu.Config{}))
	e := &Engine{Reg: reg}
	ctx := &sched.Context{Reg: reg}
	h := &hlop.HLOP{Op: vop.OpSobel}
	if alt := e.fallbackQueue(ctx, 0, h); alt != -1 {
		t.Fatalf("sole device must have no fallback, got %d", alt)
	}
}

func TestFallbackQueuePrefersAccuracyAndSkipsQuarantined(t *testing.T) {
	reg, _ := device.NewRegistry(cpu.New(1), gpu.New(gpu.Config{}), tpu.New(tpu.Config{}))
	e := &Engine{Reg: reg}
	r := e.takeRound()
	fx, ctx := &r.fx, &r.ctx
	h := &hlop.HLOP{Op: vop.OpSobel}

	// TPU fails: the GPU (more accurate accelerator) is the fallback.
	gpuIdx, tpuIdx := reg.Index("gpu"), reg.Index("tpu")
	if alt := e.fallbackQueue(ctx, tpuIdx, h); alt != gpuIdx {
		t.Fatalf("fallback = %d want gpu (%d)", alt, gpuIdx)
	}

	// Quarantine the GPU: the healthy-accelerator tier holds only the failing
	// TPU itself, so there is no fallback yet — the CPU is not drafted while
	// another accelerator is merely failing, only once it quarantines too.
	for i := 0; i < fx.rz.BreakerThreshold; i++ {
		fx.brs[gpuIdx].OnFailure(0)
	}
	if alt := e.fallbackQueue(ctx, tpuIdx, h); alt != -1 {
		t.Fatalf("fallback with gpu quarantined = %d want -1 (no healthy accelerator)", alt)
	}

	// Quarantine the TPU too: with every accelerator out, the tier drops to
	// any healthy device and the CPU absorbs the work.
	for i := 0; i < fx.rz.BreakerThreshold; i++ {
		fx.brs[tpuIdx].OnFailure(0)
	}
	if alt := e.fallbackQueue(ctx, tpuIdx, h); alt != reg.Index("cpu") {
		t.Fatalf("fallback with both accelerators quarantined = %d want cpu (%d)", alt, reg.Index("cpu"))
	}
}

func TestFallbackQueueUnsupportedOp(t *testing.T) {
	// No other device supports the op: no fallback. The image DSP's home
	// domain has no GEMM, so a GPU failure has nowhere to send it.
	reg, _ := device.NewRegistry(gpu.New(gpu.Config{}), dsp.New(dsp.Config{}))
	e := &Engine{Reg: reg}
	ctx := &sched.Context{Reg: reg}
	h := &hlop.HLOP{Op: vop.OpGEMM}
	if alt := e.fallbackQueue(ctx, reg.Index("gpu"), h); alt != -1 {
		t.Fatalf("fallback for unsupported op = %d want -1", alt)
	}
}

// TestRetriesExhaustedSurfaces drives one HLOP through MaxRetries failures
// and checks the surfaced error wraps the device's.
func TestRetriesExhaustedSurfaces(t *testing.T) {
	flaky := &flakyDevice{Device: gpu.New(gpu.Config{})}
	flaky.failures.Store(1 << 20)
	reg, _ := device.NewRegistry(flaky)
	e := &Engine{Reg: reg, Policy: row("gpu-baseline").Policy,
		Spec: hlop.Spec{TargetPartitions: 2, MinTile: 8}}
	_, err := e.Run(sobelVOP(t, 32, 31))
	if err == nil {
		t.Fatal("exhausted retries must surface")
	}
	if !errors.Is(err, errInjected) {
		t.Fatalf("surfaced error should wrap the device error, got %v", err)
	}
}

// TestRetryBoundConfigurable checks the engine honours its retry bound: with
// a raised bound and a device that recovers late, the run succeeds.
func TestRetryBoundConfigurable(t *testing.T) {
	flaky := &flakyDevice{Device: gpu.New(gpu.Config{})}
	flaky.failures.Store(6) // more than the default bound of 4
	reg, _ := device.NewRegistry(flaky)
	e := &Engine{Reg: reg, Policy: row("gpu-baseline").Policy,
		Spec:       hlop.Spec{TargetPartitions: 2, MinTile: 8},
		resilience: resilience{MaxRetries: 32}}
	rep, err := e.Run(sobelVOP(t, 32, 32))
	if err != nil {
		t.Fatalf("raised retry bound should let the run recover: %v", err)
	}
	if rep.Degraded == nil || rep.Degraded.FailedDispatches != 6 {
		t.Fatalf("Degraded = %+v, want 6 failed dispatches", rep.Degraded)
	}
	if len(rep.Degraded.Quarantines) == 0 {
		t.Fatal("six consecutive failures must have opened the breaker")
	}
	if rep.Degraded.ProbeSuccesses == 0 {
		t.Fatal("recovery after quarantine must count a probe success")
	}
	if quar := e.QuarantinedDevices(); len(quar) != 0 {
		t.Fatalf("device should be re-admitted, still quarantined: %v", quar)
	}
}

// TestFailedDispatchAccountingSymmetry: the accounting a fault leaves behind
// matches the faults injected — for transient failures, for a breaker-open
// quarantine with its backlog redistribution, and for an ErrTooLarge split.
// In every case one device is the sole accelerator (or the sole target).
func TestFailedDispatchAccountingSymmetry(t *testing.T) {
	cases := []struct {
		name     string
		pol      sched.Policy
		failures int32 // consecutive failed dispatches on the flaky TPU
		tpuBytes int64 // TPU memory override; small enough and every partition splits
		check    func(t *testing.T, rep *Report)
	}{
		{name: "two transient failures", pol: row("work-stealing").Policy, failures: 2,
			check: func(t *testing.T, rep *Report) {
				d := rep.Degraded
				if d == nil || d.FailedDispatches != 2 {
					t.Fatalf("Degraded = %+v, want 2 failed dispatches", d)
				}
				if d.FailedDispatchSeconds <= 0 || d.BackoffSeconds <= 0 {
					t.Fatalf("failed dispatch time not charged: %+v", d)
				}
				if d.FailedDispatchSeconds <= d.BackoffSeconds {
					t.Fatal("charge must include dispatch overhead beyond backoff")
				}
			}},
		// A stealing policy on purpose: the idle CPU (ineligible while an
		// accelerator is healthy) keeps probing the TPU's queue while the
		// breaker-open drain runs.
		{name: "breaker opens and drains the backlog", pol: row("work-stealing").Policy,
			failures: 3, // the default threshold
			check: func(t *testing.T, rep *Report) {
				d := rep.Degraded
				if d == nil || len(d.Quarantines) != 1 {
					t.Fatalf("want one quarantine, got %+v", d)
				}
				if d.Quarantines[0].Rerouted == 0 || d.FailedDispatches != 3 {
					t.Fatalf("want 3 failed dispatches and a backlog rerouted at open, got %+v", d)
				}
			}},
		{name: "ErrTooLarge split", pol: row("tpu-only").Policy, tpuBytes: 6 << 10,
			check: func(t *testing.T, rep *Report) {
				if rep.HLOPs <= 4 {
					t.Fatalf("HLOPs after splits = %d (4 partitions planned)", rep.HLOPs)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			flaky := &flakyDevice{Device: tpu.New(tpu.Config{MemoryBytes: tc.tpuBytes})}
			flaky.failures.Store(tc.failures)
			reg, _ := device.NewRegistry(cpu.New(1), flaky)
			e := &Engine{Reg: reg, Policy: tc.pol, Spec: hlop.Spec{TargetPartitions: 4, MinTile: 8}}
			rep, err := e.Run(sobelVOP(t, 128, 33))
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, rep)
		})
	}
}

// TestDegradedNilWhenHealthy: a clean run must not allocate a report.
func TestDegradedNilWhenHealthy(t *testing.T) {
	e := &Engine{Reg: stdRegistry(t), Policy: row("work-stealing").Policy,
		Spec: hlop.Spec{TargetPartitions: 4, MinTile: 8}}
	rep, err := e.Run(sobelVOP(t, 64, 34))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded != nil {
		t.Fatalf("healthy run has Degraded = %+v", rep.Degraded)
	}
}
