package core

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"shmt/internal/device"
	"shmt/internal/device/cpu"
	"shmt/internal/device/dsp"
	"shmt/internal/device/gpu"
	"shmt/internal/device/tpu"
	"shmt/internal/hlop"
	"shmt/internal/sched"
	"shmt/internal/telemetry"
	"shmt/internal/tensor"
	"shmt/internal/vop"
	"shmt/internal/workload"
)

func stdRegistry(t *testing.T) *device.Registry {
	t.Helper()
	reg, err := device.NewRegistry(cpu.New(1), gpu.New(gpu.Config{}), tpu.New(tpu.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// row is the sched.Table row named key.
func row(key string) sched.Row {
	r, ok := sched.Lookup(key)
	if !ok {
		panic("no policy row " + key)
	}
	return r
}

func sobelVOP(t *testing.T, side int, seed int64) *vop.VOP {
	t.Helper()
	m := workload.Mixed(side, side, workload.Profile{TileSize: side / 4}, seed)
	v, err := vop.New(vop.OpSobel, m)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestEngineRequiresRegistry(t *testing.T) {
	e := &Engine{}
	if _, err := e.Run(sobelVOP(t, 32, 1)); err == nil {
		t.Fatal("engine without registry should error")
	}
}

func TestEngineDefaultsToWorkStealing(t *testing.T) {
	e := &Engine{Reg: stdRegistry(t), Spec: hlop.Spec{TargetPartitions: 4, MinTile: 8}}
	rep, err := e.Run(sobelVOP(t, 64, 2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Output == nil || rep.Makespan <= 0 || rep.HLOPs == 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestEngineExactWhenCPUOnly(t *testing.T) {
	v := sobelVOP(t, 64, 3)
	e := &Engine{Reg: stdRegistry(t), Policy: row("cpu-only").Policy,
		Spec: hlop.Spec{TargetPartitions: 4, MinTile: 8}}
	rep, err := e.Run(v)
	if err != nil {
		t.Fatal(err)
	}
	// Partitioned exact execution must equal whole-matrix exact execution:
	// the halos make stencil partitions exact.
	ref, err := cpu.New(1).ExecuteInto(vop.OpSobel, v.Inputs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Output.Equal(ref) {
		t.Fatal("partitioned exact run differs from whole-matrix run")
	}
}

func TestEngineDeterministicReproducible(t *testing.T) {
	run := func() *Report {
		e := &Engine{Reg: stdRegistry(t), Policy: row("work-stealing").Policy,
			Spec: hlop.Spec{TargetPartitions: 8, MinTile: 8}, DoubleBuffer: true, Seed: 7}
		rep, err := e.Run(sobelVOP(t, 64, 4))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan {
		t.Fatalf("makespans differ: %g vs %g", a.Makespan, b.Makespan)
	}
	if !a.Output.Equal(b.Output) {
		t.Fatal("outputs differ across identical runs")
	}
}

func TestEngineConservation(t *testing.T) {
	rec := telemetry.NewRecorder()
	e := &Engine{Reg: stdRegistry(t), Policy: row("work-stealing").Policy,
		Spec: hlop.Spec{TargetPartitions: 8, MinTile: 8}, Telemetry: rec}
	rep, err := e.Run(sobelVOP(t, 64, 5))
	if err != nil {
		t.Fatal(err)
	}
	// Every HLOP executes exactly once.
	seen := map[int]int{}
	for _, s := range telemetry.HLOPSpans(rec.Spans()) {
		seen[s.ID]++
	}
	if len(seen) != rep.HLOPs {
		t.Fatalf("spans cover %d distinct HLOPs, report says %d", len(seen), rep.HLOPs)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("HLOP %d executed %d times", id, n)
		}
	}
}

// TestEngineStealLegality checks every policy row's steal rule as an engine
// invariant, on the stock registry and on the DSP platform: every HLOP
// executes in exactly one span, a no-steal row steals nothing, and under an
// accuracy-ordered row no device takes work from a more accurate one.
func TestEngineStealLegality(t *testing.T) {
	withDSP, err := device.NewRegistry(cpu.New(1), gpu.New(gpu.Config{}), dsp.New(dsp.Config{}), tpu.New(tpu.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	steals := map[sched.Steal]int{}
	for _, reg := range []*device.Registry{stdRegistry(t), withDSP} {
		rank := func(name string) int { return reg.Get(reg.Index(name)).AccuracyRank() }
		for _, r := range sched.Table {
			rec := telemetry.NewRecorder()
			e := &Engine{Reg: reg, Policy: r.Policy, DoubleBuffer: r.DoubleBuffer, Telemetry: rec,
				Spec: hlop.Spec{TargetPartitions: 16, MinTile: 8}}
			rep, err := e.Run(sobelVOP(t, 128, 9))
			if err != nil {
				t.Fatalf("%s on %d devices: %v", r.Key, reg.Len(), err)
			}
			seen := map[int]int{}
			for _, s := range telemetry.HLOPSpans(rec.Spans()) {
				seen[s.ID]++
				if s.StealFrom == "" {
					continue
				}
				steals[r.Policy.Steal]++
				switch r.Policy.Steal {
				case sched.NoSteal:
					t.Fatalf("%s on %d devices: %s stole HLOP %d from %s", r.Key, reg.Len(), s.Track, s.ID, s.StealFrom)
				case sched.StealAccuracyOrdered:
					if rank(s.Track) > rank(s.StealFrom) {
						t.Fatalf("%s on %d devices: %s stole HLOP %d from the more accurate %s",
							r.Key, reg.Len(), s.Track, s.ID, s.StealFrom)
					}
				}
			}
			if len(seen) != rep.HLOPs {
				t.Fatalf("%s on %d devices: spans cover %d HLOPs, report says %d", r.Key, reg.Len(), len(seen), rep.HLOPs)
			}
			for id, n := range seen {
				if n != 1 {
					t.Fatalf("%s on %d devices: HLOP %d executed %d times", r.Key, reg.Len(), id, n)
				}
			}
		}
	}
	if steals[sched.StealAny] == 0 || steals[sched.StealAccuracyOrdered] == 0 {
		t.Fatalf("steals by rule %v: both stealing rules must steal somewhere for the check to bite", steals)
	}
}

func TestEngineQAWSNeverRunsCriticalOnTPU(t *testing.T) {
	rec := telemetry.NewRecorder()
	pol := row("QAWS-TS").Tuned(0.02)
	pol.Window = 8
	e := &Engine{Reg: stdRegistry(t),
		Policy:       pol,
		Spec:         hlop.Spec{TargetPartitions: 16, MinTile: 8},
		DoubleBuffer: true, Telemetry: rec}
	rep, err := e.Run(sobelVOP(t, 128, 6))
	if err != nil {
		t.Fatal(err)
	}
	if rep.CriticalHLOPs == 0 {
		t.Fatal("test needs QAWS to mark some HLOPs critical")
	}
	for _, s := range telemetry.HLOPSpans(rec.Spans()) {
		if s.Critical && s.Track == "tpu" {
			t.Fatal("critical HLOP executed on the TPU despite QAWS")
		}
	}
}

func TestEngineReductionAggregation(t *testing.T) {
	m := workload.Uniform(64, 64, 0, 1, 7)
	v, _ := vop.New(vop.OpReduceSum, m)
	e := &Engine{Reg: stdRegistry(t), Policy: row("cpu-only").Policy,
		Spec: hlop.Spec{TargetPartitions: 8}}
	rep, err := e.Run(v)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, x := range m.Data {
		want += x
	}
	if math.Abs(rep.Output.Data[0]-want) > 1e-6 {
		t.Fatalf("sum = %g want %g", rep.Output.Data[0], want)
	}
}

func TestEngineGEMMEndToEnd(t *testing.T) {
	a := workload.Uniform(32, 16, 0, 1, 8)
	b := workload.Uniform(16, 24, 0, 1, 9)
	v, _ := vop.New(vop.OpGEMM, a, b)
	e := &Engine{Reg: stdRegistry(t), Policy: row("cpu-only").Policy,
		Spec: hlop.Spec{TargetPartitions: 4}}
	rep, err := e.Run(v)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := cpu.New(1).ExecuteInto(vop.OpGEMM, []*tensor.Matrix{a, b}, nil, nil)
	if !rep.Output.Equal(want) {
		t.Fatal("partitioned GEMM differs from whole-matrix GEMM")
	}
}

// TestEngineSplitsOversizedHLOPs shrinks the TPU's memory so partitions
// overflow it and the runtime must split (§3.4's granularity adjustment).
func TestEngineSplitsOversizedHLOPs(t *testing.T) {
	tiny := tpu.New(tpu.Config{MemoryBytes: 6 << 10}) // 6 KiB
	reg, _ := device.NewRegistry(cpu.New(1), gpu.New(gpu.Config{}), tiny)
	e := &Engine{Reg: reg, Policy: row("tpu-only").Policy,
		Spec: hlop.Spec{TargetPartitions: 4, MinTile: 8}}
	v := sobelVOP(t, 128, 10) // 4 partitions of ~64x64 > 6 KiB working set
	rep, err := e.Run(v)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HLOPs <= 4 {
		t.Fatalf("expected splits beyond the initial 4 partitions, got %d", rep.HLOPs)
	}
	// Result must still be complete and correct within INT8 error.
	ref, _ := cpu.New(1).ExecuteInto(vop.OpSobel, v.Inputs, nil, nil)
	var worst float64
	for i := range ref.Data {
		if d := math.Abs(rep.Output.Data[i] - ref.Data[i]); d > worst {
			worst = d
		}
	}
	if worst > 1.0 {
		t.Fatalf("split execution produced wild error %g", worst)
	}
}

// flakyDevice wraps a Device and refuses the first N dispatches at
// admission, the way a real device fault shows up; after that the inner
// device decides (a small-memory TPU still answers ErrTooLarge).
type flakyDevice struct {
	device.Device
	failures atomic.Int32
}

var errInjected = errors.New("injected device failure")

func (f *flakyDevice) Admit(op vop.Opcode, in []*tensor.Matrix) (device.Ticket, error) {
	if f.failures.Add(-1) >= 0 {
		return device.Ticket{}, errInjected
	}
	return f.Device.Admit(op, in)
}

func TestEngineFailureFallback(t *testing.T) {
	flaky := &flakyDevice{Device: tpu.New(tpu.Config{})}
	flaky.failures.Store(2)
	reg, _ := device.NewRegistry(cpu.New(1), gpu.New(gpu.Config{}), flaky)
	e := &Engine{Reg: reg, Policy: row("work-stealing").Policy,
		Spec: hlop.Spec{TargetPartitions: 4, MinTile: 8}}
	rep, err := e.Run(sobelVOP(t, 64, 11))
	if err != nil {
		t.Fatalf("engine should survive transient device failures: %v", err)
	}
	if rep.HLOPs != 4 {
		t.Fatalf("HLOPs = %d", rep.HLOPs)
	}
}

func TestEnginePermanentFailureSurfaces(t *testing.T) {
	flaky := &flakyDevice{Device: gpu.New(gpu.Config{})}
	flaky.failures.Store(1 << 20)       // never recovers
	reg, _ := device.NewRegistry(flaky) // the only device
	e := &Engine{Reg: reg, Policy: row("gpu-baseline").Policy,
		Spec: hlop.Spec{TargetPartitions: 2, MinTile: 8}}
	if _, err := e.Run(sobelVOP(t, 32, 12)); err == nil {
		t.Fatal("permanent failure with no fallback must surface")
	}
}

func TestEngineUnschedulableWork(t *testing.T) {
	// Even distribution never steals; if a policy mis-assigns to a dead
	// queue... not constructible through public policies, so instead check
	// the nil-VOP validation path.
	e := &Engine{Reg: stdRegistry(t)}
	bad := &vop.VOP{Op: vop.OpAdd, Inputs: []*tensor.Matrix{tensor.NewMatrix(4, 4)}}
	if _, err := e.Run(bad); err == nil {
		t.Fatal("invalid VOP should fail")
	}
}

func TestEngineEnergyAndComm(t *testing.T) {
	e := &Engine{Reg: stdRegistry(t), Policy: row("work-stealing").Policy,
		Spec: hlop.Spec{TargetPartitions: 8, MinTile: 8}, DoubleBuffer: true}
	rep, err := e.Run(sobelVOP(t, 128, 13))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Energy.Total() <= 0 {
		t.Fatal("energy not integrated")
	}
	if rep.Comm.Bytes <= 0 || rep.Comm.TransferTime <= 0 {
		t.Fatal("communication not tracked")
	}
	if rep.Comm.ExposedTime > rep.Comm.TransferTime {
		t.Fatal("exposed time cannot exceed raw transfer time")
	}
	if rep.PeakBytes <= 0 {
		t.Fatal("footprint not tracked")
	}
}

func TestEngineDoubleBufferReducesMakespan(t *testing.T) {
	run := func(dev string, db bool) *Report {
		e := &Engine{Reg: stdRegistry(t), Policy: row(dev).Policy,
			Spec: hlop.Spec{TargetPartitions: 8, MinTile: 8}, DoubleBuffer: db}
		rep, err := e.Run(sobelVOP(t, 128, 14))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	for _, dev := range []string{"gpu-baseline", "tpu-only"} {
		pipelined, baseline := run(dev, true), run(dev, false)
		if pipelined.Makespan >= baseline.Makespan {
			t.Fatalf("%s: double buffering should shorten the run: %g vs %g",
				dev, pipelined.Makespan, baseline.Makespan)
		}
		// Without overlap every transfer second is exposed; the two-stage
		// lane hides part of it but can never hide more than there is.
		if baseline.Comm.ExposedTime != baseline.Comm.TransferTime {
			t.Fatalf("%s: serial run should expose all transfer time: %g vs %g",
				dev, baseline.Comm.ExposedTime, baseline.Comm.TransferTime)
		}
		if pipelined.Comm.ExposedTime >= baseline.Comm.ExposedTime {
			t.Fatalf("%s: overlap did not hide any transfer time: %g vs %g",
				dev, pipelined.Comm.ExposedTime, baseline.Comm.ExposedTime)
		}
		if pipelined.Comm.ExposedTime > pipelined.Comm.TransferTime+1e-12 {
			t.Fatalf("%s: exposed %g exceeds raw transfer %g",
				dev, pipelined.Comm.ExposedTime, pipelined.Comm.TransferTime)
		}
	}
}

func TestCheckCoverage(t *testing.T) {
	v := sobelVOP(t, 64, 18)
	if err := CheckCoverage(v, hlop.Spec{TargetPartitions: 8, MinTile: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestHostScalePreservesTimelineShape(t *testing.T) {
	// A quarter-size run at 4x slowdown should land near the full-size
	// makespan (same HLOP structure, same per-HLOP virtual costs).
	big := sobelVOP(t, 256, 19)
	small := sobelVOP(t, 128, 19)
	mk := func(v *vop.VOP, scale float64) float64 {
		reg, _ := device.NewRegistry(cpu.New(scale),
			gpu.New(gpu.Config{Slowdown: scale}), tpu.New(tpu.Config{Slowdown: scale}))
		e := &Engine{Reg: reg, Policy: row("work-stealing").Policy, HostScale: scale,
			Spec: hlop.Spec{TargetPartitions: 16, MinTile: 8}, DoubleBuffer: true}
		rep, err := e.Run(v)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Makespan
	}
	full := mk(big, 1)
	scaled := mk(small, 4)
	if math.Abs(full-scaled)/full > 0.05 {
		t.Fatalf("virtual scaling drifted: full=%g scaled=%g", full, scaled)
	}
}

// Multi-step Hotspot partitions stay exact because the partitioner widens
// the halo to the step count (vop.VOP.HaloWidth).
func TestEngineMultiStepStencilExact(t *testing.T) {
	temp := workload.Uniform(64, 64, 70, 90, 50)
	power := workload.Uniform(64, 64, 0, 1, 51)
	v, err := vop.New(vop.OpStencil, temp, power)
	if err != nil {
		t.Fatal(err)
	}
	v.SetAttr("steps", 3)
	e := &Engine{Reg: stdRegistry(t), Policy: row("cpu-only").Policy,
		Spec: hlop.Spec{TargetPartitions: 4, MinTile: 8}}
	rep, err := e.Run(v)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cpu.New(1).ExecuteInto(vop.OpStencil, []*tensor.Matrix{temp, power}, nil,
		map[string]float64{"steps": 3})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Output.Equal(want) {
		t.Fatal("multi-step partitioned stencil differs from whole-matrix run")
	}
}

// TestEngineChargesStagingFootprint: per-HLOP staging counts toward
// Report.PeakBytes (Fig. 11), on top of the base input and output buffers.
func TestEngineChargesStagingFootprint(t *testing.T) {
	// Even distribution never steals, so the TPU is sure to run its share.
	e := &Engine{Reg: stdRegistry(t), Policy: row("even-distribution").Policy,
		Spec: hlop.Spec{TargetPartitions: 8, MinTile: 8}, DoubleBuffer: true}
	v := sobelVOP(t, 128, 40)
	rep, err := e.Run(v)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeviceHLOPs["tpu"] == 0 {
		t.Fatal("test needs the TPU to execute something")
	}
	// The base buffers: the 128x128 input and the output of the same shape.
	if base := int64(2*128*128) * tensor.ElemSize; rep.PeakBytes <= base {
		t.Fatalf("PeakBytes = %d, base buffers = %d: staging was not charged", rep.PeakBytes, base)
	}
}
