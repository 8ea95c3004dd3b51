package core

// Tests for the admit/compute split of the per-HLOP step (step.go): the
// deterministic loop decides a whole round in virtual time and then computes
// it on the host pool, so nothing it reports may depend on the pool's width.

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shmt/internal/chaos"
	"shmt/internal/device"
	"shmt/internal/device/cpu"
	"shmt/internal/device/gpu"
	"shmt/internal/device/tpu"
	"shmt/internal/hlop"
	"shmt/internal/parallel"
	"shmt/internal/sched"
	"shmt/internal/telemetry"
	"shmt/internal/tensor"
	"shmt/internal/vop"
	"shmt/internal/workload"
)

// withWorkers runs fn with the host pool w workers wide.
func withWorkers(w int, fn func()) {
	prev := parallel.SetWorkers(w)
	defer parallel.SetWorkers(prev)
	fn()
}

// bitEqual is tensor equality down to the bit pattern (Matrix.Equal lets any
// NaN equal any other).
func bitEqual(a, b *tensor.Matrix) bool {
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

// Property: for every opcode × policy × fault plan, the whole BatchResult of
// the deterministic loop — outputs bit for bit, every virtual-time figure,
// the degradation report, the virtual-clock spans in recording order — is the
// same at 1, 2 and 8 pool workers, and every admitted HLOP is computed
// exactly once. The pool's tasks are the admitted HLOPs, so this is the
// worker-count contract of every kernel and rounder too.
func TestPropertyPooledComputeMatchesOneWorker(t *testing.T) {
	policies := []sched.Policy{
		row("work-stealing").Policy,
		row("QAWS-TS").Tuned(0.02),
		row("even-distribution").Policy,
	}
	plans := []struct {
		name, dev string
		cfg       chaos.Config
	}{
		{name: "none"},
		{name: "failfirst", dev: "gpu", cfg: chaos.Config{FailFirstOps: 2}},
		{name: "transient", dev: "tpu", cfg: chaos.Config{TransientRate: 0.3}},
		{name: "die", dev: "gpu", cfg: chaos.Config{DieAfterOps: 2}},
		{name: "spike", dev: "gpu", cfg: chaos.Config{SpikeRate: 0.5, SpikeMultiplier: 4}},
		{name: "corrupt-view", dev: "gpu", cfg: chaos.Config{CorruptRate: 0.5}},
		{name: "corrupt-copy", dev: "tpu", cfg: chaos.Config{CorruptRate: 0.5}},
	}
	engine := func(pol sched.Policy, dev string, cfg chaos.Config) *Engine {
		cfg.Seed = 11
		devs := []device.Device{cpu.New(1), gpu.New(gpu.Config{}), tpu.New(tpu.Config{})}
		for i, d := range devs {
			if d.Name() == dev {
				devs[i] = chaos.Wrap(d, cfg)
			}
		}
		reg, err := device.NewRegistry(devs...)
		if err != nil {
			t.Fatal(err)
		}
		return &Engine{Reg: reg, Policy: pol, Seed: 5, DoubleBuffer: true, Prefetch: true,
			Telemetry: telemetry.NewRecorder(),
			Spec:      hlop.Spec{TargetPartitions: 12, MinTile: 8, MinVectorElems: 32}}
	}
	inputsFor := func(op vop.Opcode) []*tensor.Matrix {
		a := workload.Mixed(96, 96, workload.Profile{TileSize: 16}, 21)
		switch op {
		case vop.OpConv:
			return []*tensor.Matrix{a, workload.Uniform(3, 3, -1, 1, 23)}
		case vop.OpLog, vop.OpSqrt, vop.OpRsqrt:
			return []*tensor.Matrix{workload.Uniform(96, 96, 0.1, 2, 24)}
		case vop.OpParabolicPDE: // spot and strike prices
			return []*tensor.Matrix{workload.Uniform(96, 96, 0.5, 1.5, 24), workload.Uniform(96, 96, 0.5, 1.5, 22)}
		case vop.OpFFT:
			return []*tensor.Matrix{workload.Uniform(96, 64, -1, 1, 25)}
		}
		if op.NumInputs() == 2 {
			return []*tensor.Matrix{a, workload.Uniform(96, 96, -1, 1, 22)}
		}
		return []*tensor.Matrix{a}
	}

	for _, op := range vop.All() {
		inputs := inputsFor(op)
		batch := func() []*vop.VOP {
			v, err := vop.New(op, inputs...)
			if err != nil {
				t.Fatal(err)
			}
			if op == vop.OpStencil {
				v.SetAttr("steps", 3) // the grid swap and a three-ring halo
			}
			// A second, different VOP so the round interleaves two parents.
			w, err := vop.New(vop.OpMeanFilter, inputs[0])
			if err != nil {
				t.Fatal(err)
			}
			return []*vop.VOP{v, w}
		}
		for _, pol := range policies {
			for _, plan := range plans {
				name := op.String() + "/" + pol.Name + "/" + plan.name
				var base *BatchResult
				var baseSpans []telemetry.Span
				for _, w := range []int{1, 2, 8} {
					var res *BatchResult
					var err error
					e := engine(pol, plan.dev, plan.cfg)
					withWorkers(w, func() { res, err = e.RunBatch(batch()) })
					if err != nil {
						t.Fatalf("%s workers=%d: %v", name, w, err)
					}
					spans := virtualSpans(e.Telemetry)
					if w == 1 {
						base, baseSpans = res, spans
						continue
					}
					for i, rep := range res.Reports {
						b := base.Reports[i]
						if !bitEqual(rep.Output, b.Output) {
							t.Fatalf("%s workers=%d: output %d differs from one worker's", name, w, i)
						}
						if rep.Makespan != b.Makespan || rep.HLOPs != b.HLOPs || rep.CriticalHLOPs != b.CriticalHLOPs ||
							!reflect.DeepEqual(rep.DeviceHLOPs, b.DeviceHLOPs) {
							t.Fatalf("%s workers=%d: report %d = %+v, one worker %+v", name, w, i, rep, b)
						}
					}
					if res.Makespan != base.Makespan || res.PeakBytes != base.PeakBytes ||
						res.Comm != base.Comm || res.Energy != base.Energy ||
						!reflect.DeepEqual(res.Busy, base.Busy) || !reflect.DeepEqual(res.Degraded, base.Degraded) {
						t.Fatalf("%s workers=%d: batch accounting moved:\n got %+v\nwant %+v", name, w, res, base)
					}
					if !reflect.DeepEqual(spans, baseSpans) {
						t.Fatalf("%s workers=%d: virtual-clock spans differ from one worker's", name, w)
					}
				}

				// Exactly-once: run the round itself and look at what the
				// compute pass left behind, before aggregation consumes it:
				// every result landed, or a reduction's partial waiting.
				withWorkers(8, func() {
					e := engine(pol, plan.dev, plan.cfg)
					r := e.takeRound()
					v := batch()[0]
					hs, overhead, _, err := r.planVOP(pol, v, nil, 0)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					rows, cols := v.OutputShape()
					r.parentIdx = map[*vop.VOP]int{v: 0}
					r.outs = []*tensor.Matrix{tensor.NewMatrix(rows, cols)}
					r.start(pol, hs, overhead, nil)
					err = r.runDeterministic(hs)
					r.pf.drain()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					seen := make(map[*hlop.HLOP]bool, len(r.done))
					results := make(map[*tensor.Matrix]bool, len(r.done))
					for _, d := range r.done {
						partial := d.h.Op.IsReduction()
						if seen[d.h] || partial && (d.h.Result == nil || results[d.h.Result]) ||
							!partial && (!d.landed || d.h.Result != nil) {
							t.Fatalf("%s: HLOP %d admitted, computed or landed other than exactly once", name, d.h.ID)
						}
						seen[d.h], results[d.h.Result] = true, partial
					}
					if r.outstanding != 0 || len(r.done) < len(hs) {
						t.Fatalf("%s: %d outstanding, %d done of %d planned", name, r.outstanding, len(r.done), len(hs))
					}
				})
			}
		}
	}
}

// virtualSpans is what rec holds on the virtual clock: device lanes, transfer
// sub-lanes and faults. Wall-clock spans differ from run to run.
func virtualSpans(rec *telemetry.Recorder) []telemetry.Span {
	var out []telemetry.Span
	for _, s := range rec.Spans() {
		if s.Clock == telemetry.ClockVirtual {
			out = append(out, s)
		}
	}
	return out
}

// TestPooledComputeNeverWaitsOnItsOwnPrestage is the regression for a
// self-deadlock found on a prototype: had the pick loop issued asynchronous
// prestage jobs, a pool worker running job J could enter a helping wait, pick
// up the compute task of the very HLOP J stages, and wait forever on J's
// completion. Only warm's resident casts and the compute tasks run on the
// pool, each a plain loop; this holds them to finishing with a TPU and large
// operands, and to leaving the cache's gauge at zero. Needs ≥ 2 procs to
// bite; CI runs it under -cpu 1,2,4.
func TestPooledComputeNeverWaitsOnItsOwnPrestage(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	a := workload.Uniform(256, 256, -1, 1, 41)
	b := workload.Uniform(256, 256, -1, 1, 42)
	reg, err := device.NewRegistry(cpu.New(1), gpu.New(gpu.Config{}), tpu.New(tpu.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Reg: reg, Policy: row("tpu-only").Policy, DoubleBuffer: true, Prefetch: true,
		Spec: hlop.Spec{TargetPartitions: 16, MinTile: 8}}
	done := make(chan error, 1)
	go withWorkers(4, func() {
		var err error
		for i := 0; i < 5 && err == nil; i++ {
			var v *vop.VOP
			if v, err = vop.New(vop.OpGEMM, a, b); err == nil {
				_, err = e.Run(v)
			}
		}
		done <- err
	})
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("run with the resident cache on and a TPU hung")
	}
	if g := telemetry.PrefetchBufferBytes.Value(); g != 0 {
		t.Fatalf("prefetch buffer gauge left at %d bytes", g)
	}
}

var errKernel = errors.New("kernel: shape mismatch")

// badKernelDevice admits everything and fails the compute half of its nth
// dispatch — an error of the HLOP, not of the device. Results it did produce
// are remembered so the test can see them go back to the arena.
type badKernelDevice struct {
	device.Device
	failAt           int32
	admits, computes atomic.Int32

	mu      sync.Mutex
	results []*tensor.Matrix
}

func (d *badKernelDevice) Admit(op vop.Opcode, in []*tensor.Matrix) (device.Ticket, error) {
	d.admits.Add(1)
	return d.Device.Admit(op, in)
}

func (d *badKernelDevice) Compute(t device.Ticket, op vop.Opcode, in []*tensor.Matrix, _ *tensor.Matrix, at map[string]float64) (*tensor.Matrix, error) {
	if d.computes.Add(1) == d.failAt {
		return nil, errKernel
	}
	res, err := d.Device.Compute(t, op, in, nil, at) // a fresh arena buffer, like a private-memory device
	d.mu.Lock()
	d.results = append(d.results, res)
	d.mu.Unlock()
	return res, err
}

// TestComputeHalfErrorFailsTheRound: an error only the compute half can
// produce is not a device fault. The round fails with the HLOP named, nothing
// is retried or rerouted, no goroutine is left behind, and what the round had
// computed goes back to the arena.
func TestComputeHalfErrorFailsTheRound(t *testing.T) {
	spec := hlop.Spec{TargetPartitions: 8, MinTile: 8}
	planned, err := hlop.Partition(sobelVOP(t, 128, 61), spec)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*badKernelDevice, error) {
		bad := &badKernelDevice{Device: gpu.New(gpu.Config{}), failAt: 3}
		reg, err := device.NewRegistry(cpu.New(1), bad)
		if err != nil {
			t.Fatal(err)
		}
		e := &Engine{Reg: reg, Policy: row("gpu-baseline").Policy,
			DoubleBuffer: true, Prefetch: true, Spec: spec}
		_, err = e.RunBatch([]*vop.VOP{sobelVOP(t, 128, 61)})
		return bad, err
	}
	withWorkers(4, func() {
		run() // start the pool's long-lived workers before counting goroutines
		before := runtime.NumGoroutine()
		bad, err := run()
		if !errors.Is(err, errKernel) || !strings.HasPrefix(err.Error(), "core: HLOP ") {
			t.Fatalf("err = %v, want the kernel error wrapped with its HLOP", err)
		}
		if a, c := int(bad.admits.Load()), int(bad.computes.Load()); a > len(planned) || c > a {
			t.Fatalf("%d admissions, %d computes for %d HLOPs: a compute error was retried", a, c, len(planned))
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines before the run, %d after", before, runtime.NumGoroutine())
			}
			time.Sleep(time.Millisecond)
		}
		// PutMatrix resets what it takes back.
		for i, m := range bad.results {
			if m.Rows != 0 || len(m.Data) != 0 {
				t.Fatalf("result %d of %d was not returned to the arena", i, len(bad.results))
			}
		}
	})
}
