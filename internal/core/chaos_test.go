package core

// Integration tests for the chaos layer (internal/chaos) driving the
// engine's graceful degradation end to end: seeded device death mid-batch,
// reproducible fault schedules, quantified quality loss, and breaker
// re-admission after a transient outage.

import (
	"testing"

	"shmt/internal/chaos"
	"shmt/internal/device"
	"shmt/internal/device/cpu"
	"shmt/internal/device/gpu"
	"shmt/internal/device/tpu"
	"shmt/internal/hlop"
	"shmt/internal/metrics"
	"shmt/internal/vop"
	"shmt/internal/workload"
)

// chaosSpec is the partitioning every test here uses.
var chaosHLOPSpec = hlop.Spec{TargetPartitions: 8, MinTile: 8, MinVectorElems: 64}

// TestChaosDeviceDeathMidBatchCompletes kills the GPU after two operations
// in the middle of a three-VOP batch. The batch must still complete, every
// output must stay numerically correct (the CPU absorbs the dead device's
// work at equal-or-better accuracy), and the Degraded report must quantify
// the event.
func TestChaosDeviceDeathMidBatchCompletes(t *testing.T) {
	a := workload.Mixed(64, 64, workload.Profile{TileSize: 16}, 90)
	b := workload.Uniform(64, 64, 0.1, 1, 91)
	v1, _ := vop.New(vop.OpSobel, a)
	v2, _ := vop.New(vop.OpSqrt, b)
	v3, _ := vop.New(vop.OpMeanFilter, a)
	vops := []*vop.VOP{v1, v2, v3}

	wrapped := chaos.Wrap(gpu.New(gpu.Config{}), chaos.Config{Seed: 7, DieAfterOps: 2})
	reg, err := device.NewRegistry(cpu.New(1), wrapped)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Reg: reg, Policy: row("work-stealing").Policy, Spec: chaosHLOPSpec}
	res, err := e.RunBatch(vops)
	if err != nil {
		t.Fatalf("batch with a dying GPU must degrade, not fail: %v", err)
	}
	d := res.Degraded
	if d == nil {
		t.Fatal("a device death must produce a Degraded report")
	}
	if len(d.Quarantines) == 0 || d.Rerouted == 0 {
		t.Fatalf("death not quantified: %+v", d)
	}
	if d.Downgraded != 0 {
		t.Fatalf("rerouting onto the exact CPU is not a downgrade: %+v", d)
	}
	if quar := e.QuarantinedDevices(); len(quar) != 1 || quar[0] != "gpu" {
		t.Fatalf("dead GPU should stay quarantined, got %v", quar)
	}
	// Numerical correctness: each output within FP32 rounding of the exact
	// single-device result (the surviving work ran on CPU or pre-death GPU).
	host := cpu.New(1)
	for i, v := range vops {
		ref, err := host.ExecuteInto(v.Op, v.Inputs, nil, v.Attrs)
		if err != nil {
			t.Fatal(err)
		}
		mape, err := metrics.MAPE(ref.Data, res.Reports[i].Output.Data)
		if err != nil {
			t.Fatal(err)
		}
		if mape > 1e-5 {
			t.Fatalf("vop %d: MAPE %g after degradation (want FP32-rounding only)", i, mape)
		}
	}
}

// TestChaosSameSeedReproduces runs the engine twice under the
// same fault schedule: outputs must be bit-identical and the degradation
// accounting must match exactly. A different seed must produce a different
// schedule.
func TestChaosSameSeedReproduces(t *testing.T) {
	run := func(seed int64) (*Report, *Engine) {
		wrapped := chaos.Wrap(tpu.New(tpu.Config{}), chaos.Config{Seed: seed, TransientRate: 0.4})
		reg, err := device.NewRegistry(cpu.New(1), wrapped)
		if err != nil {
			t.Fatal(err)
		}
		e := &Engine{Reg: reg, Policy: row("work-stealing").Policy, Spec: chaosHLOPSpec}
		rep, err := e.Run(sobelVOP(t, 64, 92))
		if err != nil {
			t.Fatal(err)
		}
		return rep, e
	}
	r1, _ := run(11)
	r2, _ := run(11)
	if !r1.Output.Equal(r2.Output) {
		t.Fatal("same chaos seed must reproduce bit-identical output")
	}
	if r1.Makespan != r2.Makespan {
		t.Fatalf("same seed, different makespan: %g vs %g", r1.Makespan, r2.Makespan)
	}
	d1, d2 := r1.Degraded, r2.Degraded
	if (d1 == nil) != (d2 == nil) {
		t.Fatalf("degradation reports diverge: %+v vs %+v", d1, d2)
	}
	if d1 != nil && (d1.FailedDispatches != d2.FailedDispatches || d1.Rerouted != d2.Rerouted) {
		t.Fatalf("same seed, different fault schedule: %+v vs %+v", d1, d2)
	}
	// A 40% transient rate over ≥8 dispatches virtually guarantees faults;
	// if this ever flakes the rate below is wrong, not the determinism.
	if d1 == nil || d1.FailedDispatches == 0 {
		t.Fatal("transient rate 0.4 produced no faults to reproduce")
	}
	r3, _ := run(12)
	if r3.Degraded != nil && d1.FailedDispatches == r3.Degraded.FailedDispatches &&
		r3.Makespan == r1.Makespan && r3.Output.Equal(r1.Output) {
		t.Fatal("different seeds produced an identical run — schedule not seeded")
	}
}

// TestChaosDowngradeQuantified kills the GPU with the Edge TPU as the only
// healthy accelerator: rerouted HLOPs land on a less accurate device and the
// report must say so, in HLOPs and elements.
func TestChaosDowngradeQuantified(t *testing.T) {
	wrapped := chaos.Wrap(gpu.New(gpu.Config{}), chaos.Config{Seed: 3, DieAfterOps: 1})
	reg, err := device.NewRegistry(cpu.New(1), wrapped, tpu.New(tpu.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Reg: reg, Policy: row("work-stealing").Policy, Spec: chaosHLOPSpec}
	rep, err := e.Run(sobelVOP(t, 64, 93))
	if err != nil {
		t.Fatal(err)
	}
	d := rep.Degraded
	if d == nil || d.Rerouted == 0 {
		t.Fatalf("dead GPU must reroute work: %+v", d)
	}
	if d.Downgraded == 0 || d.DowngradedElems == 0 {
		t.Fatalf("FP32→INT8 reroute must be reported as a downgrade: %+v", d)
	}
	if d.Downgraded > d.Rerouted || d.DowngradedElems > d.ReroutedElems {
		t.Fatalf("downgrades exceed reroutes: %+v", d)
	}
}

// TestChaosOutageBreakerReadmits drives a transient outage (the first ops
// fail, then the device recovers): the breaker must open, probe, and
// re-admit the device, leaving nothing quarantined at the end.
func TestChaosOutageBreakerReadmits(t *testing.T) {
	wrapped := chaos.Wrap(tpu.New(tpu.Config{}), chaos.Config{Seed: 5, FailFirstOps: 3})
	reg, err := device.NewRegistry(cpu.New(1), wrapped)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Reg: reg, Policy: row("work-stealing").Policy,
		Spec: chaosHLOPSpec, resilience: resilience{MaxRetries: 16}}
	rep, err := e.Run(sobelVOP(t, 128, 94))
	if err != nil {
		t.Fatalf("outage should be survivable: %v", err)
	}
	d := rep.Degraded
	if d == nil || len(d.Quarantines) == 0 {
		t.Fatalf("three consecutive failures must quarantine: %+v", d)
	}
	if d.ProbeSuccesses == 0 {
		t.Fatalf("recovered device must pass a re-admission probe: %+v", d)
	}
	if quar := e.QuarantinedDevices(); len(quar) != 0 {
		t.Fatalf("device should be re-admitted, still quarantined: %v", quar)
	}
}

// TestChaosCorruptionIsQuantifiableQualityLoss: silent output corruption
// does not fail the run; it shows up as measurable quality loss against the
// clean run, deterministically for a fixed seed.
func TestChaosCorruptionIsQuantifiableQualityLoss(t *testing.T) {
	v := sobelVOP(t, 64, 96)
	run := func(corrupt bool) *Report {
		g := device.Device(gpu.New(gpu.Config{}))
		if corrupt {
			g = chaos.Wrap(g, chaos.Config{Seed: 17, CorruptRate: 1})
		}
		reg, err := device.NewRegistry(cpu.New(1), g)
		if err != nil {
			t.Fatal(err)
		}
		e := &Engine{Reg: reg, Policy: row("work-stealing").Policy, Spec: chaosHLOPSpec}
		rep, err := e.Run(v)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	clean, dirty := run(false), run(true)
	if dirty.Output.Equal(clean.Output) {
		t.Fatal("corruption rate 1 left the run's output untouched")
	}
	mape, err := metrics.MAPE(clean.Output.Data, dirty.Output.Data)
	if err != nil {
		t.Fatal(err)
	}
	if mape <= 0 {
		t.Fatalf("corruption must be quantifiable, MAPE = %g", mape)
	}
	again := run(true)
	if !again.Output.Equal(dirty.Output) {
		t.Fatal("corruption is not reproducible for a fixed seed")
	}
}

// TestChaosLatencyShiftsSchedule: a latency-degraded accelerator changes the
// virtual timeline (work shifts away from it) without affecting success.
func TestChaosLatencyShiftsSchedule(t *testing.T) {
	run := func(mult float64) float64 {
		g := device.Device(gpu.New(gpu.Config{}))
		if mult > 0 {
			g = chaos.Wrap(g, chaos.Config{Seed: 19, LatencyMultiplier: mult})
		}
		reg, err := device.NewRegistry(cpu.New(1), g)
		if err != nil {
			t.Fatal(err)
		}
		e := &Engine{Reg: reg, Policy: row("work-stealing").Policy, Spec: chaosHLOPSpec}
		rep, err := e.Run(sobelVOP(t, 128, 97))
		if err != nil {
			t.Fatal(err)
		}
		return rep.Makespan
	}
	healthy, degraded := run(0), run(8)
	if degraded <= healthy {
		t.Fatalf("an 8x slower GPU cannot speed the run up: %g vs %g", degraded, healthy)
	}
}
