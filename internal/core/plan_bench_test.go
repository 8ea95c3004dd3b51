package core

import (
	"testing"

	"shmt/internal/device"
	"shmt/internal/device/cpu"
	"shmt/internal/device/gpu"
	"shmt/internal/device/tpu"
	"shmt/internal/sched"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// BenchmarkPlanningOverhead isolates the host-side planning phase —
// hlop.Partition plus Policy.Assign — and compares cold planning against
// replaying a memoized plan, then repeats the comparison end-to-end through
// Engine.Run. The plan/* sub-benchmarks measure exactly what the plan cache
// short-circuits: cold runs partition geometry, criticality sampling and the
// assignment pass every iteration; replay runs the key lookup plus data
// re-extraction (views must rebind to the new inputs) and nothing else.
// The adaptive row's cold planning adds its pricing (two modelled pick
// loops) to QAWS-TS's; the cold_64x64 rows show that cost on a
// serving-sized VOP, where sampling is cheap. TestPlanReplayAllocs holds the
// replay rows' allocation count.
func BenchmarkPlanningOverhead(b *testing.B) {
	reg, err := device.NewRegistry(cpu.New(1), gpu.New(gpu.Config{}), tpu.New(tpu.Config{}))
	if err != nil {
		b.Fatal(err)
	}
	// 2048 is the serving-realistic shape (the paper's full-size inputs are
	// 8192²); sampling cost scales with elements while replay cost scales
	// with partition count, so small inputs understate what replay saves.
	addVOP := func(side int) *vop.VOP {
		a := tensor.NewMatrix(side, side)
		c := tensor.NewMatrix(side, side)
		for i := range a.Data {
			a.Data[i] = float64(i%97) * 0.25
			c.Data[i] = float64(i%89) * 0.5
		}
		v, err := vop.New(vop.OpAdd, a, c)
		if err != nil {
			b.Fatal(err)
		}
		return v
	}
	v, small := addVOP(2048), addVOP(64)

	policies := []struct {
		name string
		pol  sched.Policy
	}{
		// Shape-only planning: the floor for what replay can save.
		{"worksteal", row("work-stealing").Policy},
		// The paper-default QAWS variant (top-K, striding, rate 2^-15).
		{"qaws_ts", row("QAWS-TS").Policy},
		// The session default: QAWS-TS plus pricing on a miss.
		{"qaws_ts_adaptive", row("QAWS-TS/adaptive").Policy},
		// The highest-overhead sampler at a quality-leaning rate (Fig. 9
		// sweeps rates; denser sampling is where planning cost concentrates).
		{"qaws_tr_dense", row("QAWS-TR").Tuned(1.0 / (1 << 8))},
	}

	planOnce := func(b *testing.B, e *Engine, v *vop.VOP) {
		b.Helper()
		r := e.takeRound()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := r.planVOP(e.Policy, v, nil, 0); err != nil {
				b.Fatal(err)
			}
		}
	}

	for _, p := range policies {
		b.Run("plan/"+p.name+"/cold", func(b *testing.B) {
			planOnce(b, &Engine{Reg: reg, Policy: p.pol, Seed: 1}, v)
		})
		if p.pol.Assignment == sched.TopK {
			b.Run("plan/"+p.name+"/cold_64x64", func(b *testing.B) {
				planOnce(b, &Engine{Reg: reg, Policy: p.pol, Seed: 1}, small)
			})
		}
		b.Run("plan/"+p.name+"/replay", func(b *testing.B) {
			e := &Engine{Reg: reg, Policy: p.pol, Seed: 1, PlanCacheEntries: 64}
			if _, _, _, err := e.takeRound().planVOP(p.pol, v, nil, 0); err != nil {
				b.Fatal(err) // warm the cache
			}
			planOnce(b, e, v)
		})
	}

	// End-to-end: the same VOP through Engine.Run with and without replay.
	// Kernel execution and aggregation dominate here; the delta is the
	// planning phase the cache eliminates.
	run := func(b *testing.B, e *Engine) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Run(v); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("execute/qaws_tr_dense/fresh", func(b *testing.B) {
		run(b, &Engine{Reg: reg, Policy: row("QAWS-TR").Tuned(1.0 / (1 << 8)), Seed: 1})
	})
	b.Run("execute/qaws_tr_dense/replay", func(b *testing.B) {
		e := &Engine{Reg: reg, Policy: row("QAWS-TR").Tuned(1.0 / (1 << 8)),
			Seed: 1, PlanCacheEntries: 64}
		if _, err := e.Run(v); err != nil {
			b.Fatal(err) // warm the cache
		}
		run(b, e)
	})
}
