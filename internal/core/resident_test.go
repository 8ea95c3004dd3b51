package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"shmt/internal/device"
	"shmt/internal/device/cpu"
	"shmt/internal/device/gpu"
	"shmt/internal/device/tpu"
	"shmt/internal/hlop"
	"shmt/internal/sched"
	"shmt/internal/telemetry"
	"shmt/internal/tensor"
	"shmt/internal/vop"
	"shmt/internal/workload"
)

// castCounter wraps a casting device and watches its two compute halves from
// outside: how often each operand was cast, and every buffer a cast produced
// (so the test can see them all go back to the arena). failAt > 0 fails the
// nth execute half with a kernel error, after releasing the staged set as a
// real ExecuteStaged does.
type castCounter struct {
	device.Device
	ps     device.Prestager
	failAt int

	mu     sync.Mutex
	casts  map[*tensor.Matrix]int
	staged []*tensor.Matrix
	execs  int
}

func newCastCounter(d device.Device) *castCounter {
	return &castCounter{Device: d, ps: d.(device.Prestager), casts: map[*tensor.Matrix]int{}}
}

func (c *castCounter) StageInput(op vop.Opcode, in *tensor.Matrix) *tensor.Matrix {
	m := c.ps.StageInput(op, in)
	c.mu.Lock()
	c.casts[in]++
	c.staged = append(c.staged, m)
	c.mu.Unlock()
	return m
}

func (c *castCounter) ExecuteStaged(op vop.Opcode, st *device.Staged, dst *tensor.Matrix, at map[string]float64) (*tensor.Matrix, error) {
	c.mu.Lock()
	c.execs++
	fail := c.execs == c.failAt
	c.mu.Unlock()
	if fail {
		st.Release()
		return nil, errKernel
	}
	return c.ps.ExecuteStaged(op, st, dst, at)
}

func (c *castCounter) Compute(_ device.Ticket, op vop.Opcode, in []*tensor.Matrix, dst *tensor.Matrix, at map[string]float64) (*tensor.Matrix, error) {
	return device.ComputeStaged(c, op, in, dst, at)
}

// leaked returns how many cast buffers were not returned to the arena
// (PutMatrix resets what it takes back).
func (c *castCounter) leaked() int {
	n := 0
	for _, m := range c.staged {
		if m.Rows != 0 || len(m.Data) != 0 {
			n++
		}
	}
	return n
}

// residentCases are the two VOPs whose HLOPs share an operand: GEMM's row
// bands share B, Conv's tiles share the kernel.
func residentCases() []struct {
	op     vop.Opcode
	inputs []*tensor.Matrix
} {
	return []struct {
		op     vop.Opcode
		inputs []*tensor.Matrix
	}{
		{vop.OpGEMM, []*tensor.Matrix{workload.Uniform(96, 80, -1, 1, 11), workload.Uniform(80, 72, -1, 1, 12)}},
		{vop.OpConv, []*tensor.Matrix{workload.Uniform(96, 96, -1, 1, 13), workload.Uniform(5, 5, -1, 1, 14)}},
	}
}

// TestResidentCastServesEveryCastingDevice: the resident shared-operand
// cache casts GEMM's B and Conv's kernel once per (device, round) for the
// GPU exactly as for the TPU, the result is bit-identical to casting it per
// HLOP at every worker count, and every cast buffer and every gauge byte is
// back when the round's prefetcher has drained.
func TestResidentCastServesEveryCastingDevice(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	registries := []struct {
		name string
		pol  sched.Policy
		devs func() []device.Device
	}{
		{"gpu", row("gpu-baseline").Policy, func() []device.Device {
			return []device.Device{newCastCounter(gpu.New(gpu.Config{}))}
		}},
		{"tpu", row("tpu-only").Policy, func() []device.Device {
			return []device.Device{newCastCounter(tpu.New(tpu.Config{}))}
		}},
		{"cpu+gpu+tpu", row("work-stealing").Policy, func() []device.Device {
			return []device.Device{cpu.New(1), newCastCounter(gpu.New(gpu.Config{})), newCastCounter(tpu.New(tpu.Config{}))}
		}},
	}
	spec := hlop.Spec{TargetPartitions: 12, MinTile: 8}
	for _, c := range residentCases() {
		shared := c.inputs[1]
		for _, rg := range registries {
			var want *tensor.Matrix
			for _, resident := range []bool{false, true} {
				for _, workers := range []int{1, 2, 4} {
					name := fmt.Sprintf("%s/%s/resident=%v/workers=%d", c.op, rg.name, resident, workers)
					devs := rg.devs()
					reg, err := device.NewRegistry(devs...)
					if err != nil {
						t.Fatal(err)
					}
					v, err := vop.New(c.op, c.inputs...)
					if err != nil {
						t.Fatal(err)
					}
					e := &Engine{Reg: reg, Policy: rg.pol, Spec: spec, DoubleBuffer: true, Prefetch: resident, Seed: 7}
					var rep *Report
					withWorkers(workers, func() { rep, err = e.Run(v) })
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if want == nil {
						want = rep.Output
					} else if !bitEqual(rep.Output, want) {
						t.Fatalf("%s: output differs from resident=false workers=1", name)
					}
					for _, d := range devs {
						cc, ok := d.(*castCounter)
						if !ok {
							continue
						}
						ran := cc.execs
						switch n := cc.casts[shared]; {
						case !resident && n != ran:
							t.Fatalf("%s: %s cast the shared operand %d times for %d HLOPs with the cache off", name, cc.Name(), n, ran)
						case resident && ran > 0 && n != 1:
							t.Fatalf("%s: %s cast the shared operand %d times in one round (%d HLOPs)", name, cc.Name(), n, ran)
						case resident && ran == 0 && n != 0:
							t.Fatalf("%s: %s cast the shared operand without running an HLOP", name, cc.Name())
						}
						if n := cc.leaked(); n != 0 {
							t.Fatalf("%s: %d of %s's %d cast buffers never went back to the arena", name, n, cc.Name(), len(cc.staged))
						}
					}
					if g := telemetry.PrefetchBufferBytes.Value(); g != 0 {
						t.Fatalf("%s: prefetch buffer gauge left at %d bytes", name, g)
					}
				}
			}
		}
	}
}

// TestResidentCastReleasedOnComputeError: when an execute half fails, the
// round is released instead of aggregated — the resident cast and every
// per-HLOP cast still go back to the arena and the gauge returns to zero.
func TestResidentCastReleasedOnComputeError(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	for _, c := range residentCases() {
		for _, mk := range []func() device.Device{
			func() device.Device { return gpu.New(gpu.Config{}) },
			func() device.Device { return tpu.New(tpu.Config{}) },
		} {
			cc := newCastCounter(mk())
			cc.failAt = 3
			reg, err := device.NewRegistry(cc)
			if err != nil {
				t.Fatal(err)
			}
			v, err := vop.New(c.op, c.inputs...)
			if err != nil {
				t.Fatal(err)
			}
			e := &Engine{Reg: reg, Policy: sched.Policy{Name: cc.Name() + "-only", Device: cc.Name()}, DoubleBuffer: true, Prefetch: true,
				Spec: hlop.Spec{TargetPartitions: 12, MinTile: 8}}
			withWorkers(4, func() { _, err = e.Run(v) })
			if !errors.Is(err, errKernel) {
				t.Fatalf("%s on %s: err = %v, want the kernel error", c.op, cc.Name(), err)
			}
			if n := cc.leaked(); n != 0 {
				t.Fatalf("%s on %s: %d of %d cast buffers never went back to the arena", c.op, cc.Name(), n, len(cc.staged))
			}
			if g := telemetry.PrefetchBufferBytes.Value(); g != 0 {
				t.Fatalf("%s on %s: prefetch buffer gauge left at %d bytes", c.op, cc.Name(), g)
			}
		}
	}
}
