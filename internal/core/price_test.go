package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"shmt/internal/chaos"
	"shmt/internal/device"
	"shmt/internal/device/cpu"
	"shmt/internal/device/dsp"
	"shmt/internal/device/gpu"
	"shmt/internal/device/tpu"
	"shmt/internal/hlop"
	"shmt/internal/sched"
	"shmt/internal/tensor"
	"shmt/internal/vop"
	"shmt/internal/workload"
)

// watched counts every dispatch a device is asked for: pricing may read a
// device's cost model and nothing else. Engine runs compute on the host
// pool, hence the atomic.
type watched struct {
	device.Device
	calls *atomic.Int64
}

func (w watched) Admit(op vop.Opcode, in []*tensor.Matrix) (device.Ticket, error) {
	w.calls.Add(1)
	return w.Device.Admit(op, in)
}

func (w watched) Compute(t device.Ticket, op vop.Opcode, in []*tensor.Matrix, dst *tensor.Matrix, at map[string]float64) (*tensor.Matrix, error) {
	w.calls.Add(1)
	return w.Device.Compute(t, op, in, dst, at)
}

func (w watched) ExecuteInto(op vop.Opcode, in []*tensor.Matrix, dst *tensor.Matrix, at map[string]float64) (*tensor.Matrix, error) {
	w.calls.Add(1)
	return w.Device.ExecuteInto(op, in, dst, at)
}

// platforms returns the stock and the DSP registry at virtual-platform
// slowdown scale, each device behind watched when calls is not nil.
func platforms(t *testing.T, scale float64, calls *atomic.Int64) []*device.Registry {
	t.Helper()
	sets := [][]device.Device{
		{cpu.New(scale), gpu.New(gpu.Config{Slowdown: scale}), tpu.New(tpu.Config{Slowdown: scale})},
		{cpu.New(scale), gpu.New(gpu.Config{Slowdown: scale}), dsp.New(dsp.Config{Slowdown: scale}), tpu.New(tpu.Config{Slowdown: scale})},
	}
	var regs []*device.Registry
	for _, devs := range sets {
		for i, d := range devs {
			if calls != nil {
				devs[i] = watched{d, calls}
			}
		}
		reg, err := device.NewRegistry(devs...)
		if err != nil {
			t.Fatal(err)
		}
		regs = append(regs, reg)
	}
	return regs
}

// oddShape draws a rows×cols shape with odd sides in 33–63 where the opcode
// allows one, so partitions end in uneven tails.
func oddShape(r *rand.Rand, op vop.Opcode) (rows, cols int) {
	odd := func() int { return 33 + 2*r.Intn(16) }
	rows, cols = odd(), odd()
	switch op {
	case vop.OpDCT8x8:
		rows, cols = 8*(5+r.Intn(3)), 8*(5+r.Intn(3))
	case vop.OpFFT:
		cols = 32 << r.Intn(2)
	}
	return rows, cols
}

// constant returns inputs of the same shapes with every element 1: every
// partition is then equally critical, which is what the pricing assumes.
func constant(inputs []*tensor.Matrix) []*tensor.Matrix {
	out := make([]*tensor.Matrix, len(inputs))
	for i, in := range inputs {
		out[i] = tensor.NewMatrix(in.Rows, in.Cols)
		for j := range out[i].Data {
			out[i].Data[j] = 1
		}
	}
	return out
}

func newPricedVOP(t *testing.T, op vop.Opcode, inputs []*tensor.Matrix, attrs map[string]float64) *vop.VOP {
	t.Helper()
	v, err := vop.New(op, inputs...)
	if err != nil {
		t.Fatalf("vop.New(%s): %v", op, err)
	}
	for k, x := range attrs {
		v.SetAttr(k, x)
	}
	return v
}

// priceOf is what e's first run of v prices: v freshly partitioned, no
// device quarantined.
func priceOf(t *testing.T, e *Engine, v *vop.VOP) pricing {
	t.Helper()
	hs, err := hlop.Partition(v, e.Spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &sched.Context{Reg: e.Reg, Seed: e.Seed, HostScale: max(e.HostScale, 1)}
	return e.price(ctx, e.Policy, v, hs, e.PlanCacheEntries > 0)
}

// TestAdaptiveAgainstQAWSTS holds the adaptive row to QAWS-TS over random
// opcodes, odd sides with uneven tails and the stock and DSP platforms, with
// and without a plan cache, on a VOP's first run and on its replay:
//   - a partitioned run is QAWS-TS's run: output bits, makespan, HLOP count
//     and per-device HLOPs;
//   - a one-device run is no slower than QAWS-TS's, charges no sampling,
//     runs on the GPU only, and takes the priced makespan.
//
// Both runs are held to the first run's prices, so the replay takes the
// first run's branch.
func TestAdaptiveAgainstQAWSTS(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	trials := 30
	if testing.Short() {
		trials = 10
	}
	branches := map[bool]int{}
	ops := vop.All()
	for trial := 0; trial < trials; trial++ {
		op := ops[r.Intn(len(ops))]
		rows, cols := oddShape(r, op)
		inputs, attrs := randInputs(r, op, rows, cols)
		spec := hlop.Spec{TargetPartitions: 1 + r.Intn(24), MinTile: 8, MinVectorElems: 64}
		for _, reg := range platforms(t, 1, nil) {
			for _, entries := range []int{0, 8} {
				where := fmt.Sprintf("trial %d, %s %dx%d on %d devices, plan cache %d", trial, op, rows, cols, reg.Len(), entries)
				engine := func(key string) *Engine {
					row := row(key)
					return &Engine{Reg: reg, Policy: row.Policy, DoubleBuffer: row.DoubleBuffer,
						Spec: spec, Seed: 7, PlanCacheEntries: entries}
				}
				qe, ae := engine("QAWS-TS"), engine("QAWS-TS/adaptive")
				p := priceOf(t, ae, newPricedVOP(t, op, inputs, attrs))
				branches[p.oneDevice]++
				if reg.Get(p.device).Name() != "gpu" {
					t.Fatalf("%s: one-device branch on %s", where, reg.Get(p.device).Name())
				}
				for run := 0; run < 2; run++ {
					qaws, err := qe.Run(newPricedVOP(t, op, inputs, attrs))
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					adaptive, err := ae.Run(newPricedVOP(t, op, inputs, attrs))
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					if p.oneDevice {
						if adaptive.Makespan > qaws.Makespan || adaptive.SchedOverhead != 0 ||
							adaptive.Makespan != p.oneDeviceMakespan ||
							!reflect.DeepEqual(adaptive.DeviceHLOPs, map[string]int{"gpu": adaptive.HLOPs}) {
							t.Fatalf("%s, run %d: one-device run %.9g s (overhead %g, %v), priced %+v, QAWS-TS %.9g s",
								where, run, adaptive.Makespan, adaptive.SchedOverhead, adaptive.DeviceHLOPs, p, qaws.Makespan)
						}
					} else if !bitEqual(adaptive.Output, qaws.Output) || adaptive.Makespan != qaws.Makespan ||
						adaptive.HLOPs != qaws.HLOPs || !reflect.DeepEqual(adaptive.DeviceHLOPs, qaws.DeviceHLOPs) {
						t.Fatalf("%s, run %d: partitioned run differs from QAWS-TS: %.9g s %v vs %.9g s %v",
							where, run, adaptive.Makespan, adaptive.DeviceHLOPs, qaws.Makespan, qaws.DeviceHLOPs)
					}
				}
			}
		}
	}
	if branches[true] == 0 || branches[false] == 0 {
		t.Fatalf("branches taken %v: the trials must reach both", branches)
	}
}

// TestPricingMatchesTheEngine holds both prices to the engine, on the real
// platform and on virtual ones 64 and 4096 times slower, where the
// partitioned branch wins too: the one-device price is sw-pipelining's run
// (the same HLOPs on the GPU, double-buffered), and the partitioned price,
// sampling charge included, is QAWS-TS's run on inputs whose partitions are
// all equally critical. The price is the same on the real inputs, so it does
// not read their values.
//
// On other inputs QAWS-TS places the critical partitions, not the first
// ones, and runs up to about a tenth faster or slower than priced; near the
// crossover the cheaper-priced branch can then be the slower one. So
// "a one-device run is no slower than QAWS-TS" is asserted on the real
// platform (TestAdaptiveAgainstQAWSTS), where the branches are far apart.
func TestPricingMatchesTheEngine(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	trials := 30
	if testing.Short() {
		trials = 10
	}
	branches := map[bool]int{}
	ops := vop.All()
	for trial := 0; trial < trials; trial++ {
		op := ops[r.Intn(len(ops))]
		rows, cols := oddShape(r, op)
		inputs, attrs := randInputs(r, op, rows, cols)
		spec := hlop.Spec{TargetPartitions: 1 + r.Intn(24), MinTile: 8, MinVectorElems: 64}
		scale := []float64{1, 64, 4096}[r.Intn(3)]
		for _, reg := range platforms(t, scale, nil) {
			where := fmt.Sprintf("trial %d, %s %dx%d on %d devices at scale %g", trial, op, rows, cols, reg.Len(), scale)
			engine := func(key string) *Engine {
				row := row(key)
				return &Engine{Reg: reg, Policy: row.Policy, DoubleBuffer: row.DoubleBuffer,
					Spec: spec, Seed: 7, HostScale: scale}
			}
			run := func(key string, in []*tensor.Matrix) *Report {
				rep, err := engine(key).Run(newPricedVOP(t, op, in, attrs))
				if err != nil {
					t.Fatalf("%s, %s: %v", where, key, err)
				}
				return rep
			}
			flat := constant(inputs)
			p := priceOf(t, engine("QAWS-TS/adaptive"), newPricedVOP(t, op, inputs, attrs))
			branches[p.oneDevice]++
			if sw := run("sw-pipelining", inputs); sw.Makespan != p.oneDeviceMakespan {
				t.Fatalf("%s: priced one-device %.9g s, sw-pipelining ran %.9g s", where, p.oneDeviceMakespan, sw.Makespan)
			}
			if q := run("QAWS-TS", flat); q.Makespan != p.partitionedMakespan {
				t.Fatalf("%s: priced partitioned %.9g s, QAWS-TS on equally critical inputs ran %.9g s",
					where, p.partitionedMakespan, q.Makespan)
			}
			if pf := priceOf(t, engine("QAWS-TS/adaptive"), newPricedVOP(t, op, flat, attrs)); pf != p {
				t.Fatalf("%s: priced %+v on the data, %+v on equally critical inputs", where, p, pf)
			}
			if a := run("QAWS-TS/adaptive", flat); a.Makespan != min(p.oneDeviceMakespan, p.partitionedMakespan) {
				t.Fatalf("%s: on equally critical inputs priced %+v and ran %.9g s", where, p, a.Makespan)
			}
		}
	}
	if branches[true] == 0 || branches[false] == 0 {
		t.Fatalf("branches taken %v: the trials must reach both", branches)
	}
}

// TestPricingIsPure prices random VOPs under every quarantine mask of both
// platforms and checks that pricing dispatches nothing, changes no HLOP,
// picks the most accurate eligible device, repeats itself, and does not
// depend on the input values.
func TestPricingIsPure(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	pol := row("QAWS-TS/adaptive").Policy
	var calls atomic.Int64
	ops := vop.All()
	for trial := 0; trial < 8; trial++ {
		op := ops[r.Intn(len(ops))]
		rows, cols := oddShape(r, op)
		inputs, attrs := randInputs(r, op, rows, cols)
		spec := hlop.Spec{TargetPartitions: 1 + r.Intn(24), MinTile: 8, MinVectorElems: 64}
		for _, reg := range platforms(t, 64, &calls) {
			e := &Engine{Reg: reg, Policy: pol, DoubleBuffer: true, Spec: spec, Seed: 7, HostScale: 64}
			for mask := 0; mask < 1<<reg.Len(); mask++ {
				ctx := &sched.Context{Reg: reg, Seed: 7, HostScale: 64,
					Quarantined: func(i int) bool { return mask>>i&1 == 1 }}
				hs, err := hlop.Partition(newPricedVOP(t, op, inputs, attrs), spec)
				if err != nil {
					t.Fatal(err)
				}
				flat, err := hlop.Partition(newPricedVOP(t, op, constant(inputs), attrs), spec)
				if err != nil {
					t.Fatal(err)
				}
				before := hlop.Capture(hs)
				for _, cached := range []bool{false, true} {
					p := e.price(ctx, pol, hs[0].Parent, hs, cached)
					if n := calls.Load(); n != 0 {
						t.Fatalf("trial %d %s, mask %b: pricing dispatched %d times", trial, op, mask, n)
					}
					if !reflect.DeepEqual(hlop.Capture(hs), before) {
						t.Fatalf("trial %d %s, mask %b: pricing changed the HLOPs", trial, op, mask)
					}
					for _, h := range hs {
						if h.ReadyAt != 0 || h.Finish != 0 || h.ExecQueue != 0 || h.Result != nil {
							t.Fatalf("trial %d %s, mask %b: pricing booked HLOP %d", trial, op, mask, h.ID)
						}
					}
					if want := ctx.EligibleFor(op)[0]; p.device != want {
						t.Fatalf("trial %d %s, mask %b: one-device branch on queue %d, want %d", trial, op, mask, p.device, want)
					}
					if again := e.price(ctx, pol, hs[0].Parent, hs, cached); again != p {
						t.Fatalf("trial %d %s, mask %b: %+v then %+v", trial, op, mask, p, again)
					}
					if other := e.price(ctx, pol, flat[0].Parent, flat, cached); other != p {
						t.Fatalf("trial %d %s, mask %b: %+v on the data, %+v on constant inputs", trial, op, mask, p, other)
					}
					if math.IsInf(p.oneDeviceMakespan, 0) || !(p.oneDeviceMakespan > 0) || !(p.partitionedMakespan > 0) {
						t.Fatalf("trial %d %s, mask %b: %+v", trial, op, mask, p)
					}
				}
			}
		}
	}
}

// TestPricingConsumesNoFaultDraw runs a VOP that stays partitioned under a
// chaos plan — the GPU fails its first dispatches, the TPU fails at random —
// under QAWS-TS and the adaptive row, each over its own freshly wrapped
// devices. Equal Degraded reports, outputs and makespans show that pricing
// drew no fault and probed no breaker.
func TestPricingConsumesNoFaultDraw(t *testing.T) {
	const scale = 256 // a 128² input on the timeline of a 2048² one
	in := workload.Mixed(128, 128, workload.Profile{TileSize: 32}, 5)
	run := func(key string) *Report {
		reg, err := device.NewRegistry(cpu.New(scale),
			chaos.Wrap(gpu.New(gpu.Config{Slowdown: scale}), chaos.Config{Seed: 3, FailFirstOps: 2}),
			chaos.Wrap(tpu.New(tpu.Config{Slowdown: scale}), chaos.Config{Seed: 4, TransientRate: 0.3}))
		if err != nil {
			t.Fatal(err)
		}
		row := row(key)
		e := &Engine{Reg: reg, Policy: row.Policy, DoubleBuffer: row.DoubleBuffer,
			Spec: hlop.Spec{TargetPartitions: 16, MinTile: 8}, Seed: 7, HostScale: scale}
		v, err := vop.New(vop.OpSobel, in)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(v)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		return rep
	}
	qaws, adaptive := run("QAWS-TS"), run("QAWS-TS/adaptive")
	if adaptive.SchedOverhead == 0 {
		t.Fatal("the VOP must stay partitioned: its run sampled no criticality")
	}
	if qaws.Degraded == nil || qaws.Degraded.FailedDispatches == 0 {
		t.Fatalf("the chaos plan must fail dispatches: %+v", qaws.Degraded)
	}
	if !reflect.DeepEqual(adaptive.Degraded, qaws.Degraded) {
		t.Fatalf("Degraded differs:\nadaptive %+v\nQAWS-TS  %+v", adaptive.Degraded, qaws.Degraded)
	}
	if !bitEqual(adaptive.Output, qaws.Output) || adaptive.Makespan != qaws.Makespan {
		t.Fatalf("partitioned run differs from QAWS-TS: %.9g vs %.9g s", adaptive.Makespan, qaws.Makespan)
	}
}
