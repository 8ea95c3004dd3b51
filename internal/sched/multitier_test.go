package sched

import (
	"testing"

	"shmt/internal/device"
	"shmt/internal/device/cpu"
	"shmt/internal/device/dsp"
	"shmt/internal/device/gpu"
	"shmt/internal/device/tpu"
	"shmt/internal/hlop"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// fourCtx builds the extended platform: CPU + GPU + DSP + TPU.
func fourCtx(t *testing.T) *Context {
	t.Helper()
	reg, err := device.NewRegistry(cpu.New(1), gpu.New(gpu.Config{}),
		dsp.New(dsp.Config{}), tpu.New(tpu.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	return &Context{Reg: reg, Seed: 1}
}

func TestEligibleForFiltersBySupport(t *testing.T) {
	ctx := fourCtx(t)
	// Sobel is in the DSP's home domain: three eligible accelerators,
	// accuracy-ordered gpu < dsp < tpu.
	el := ctx.EligibleFor(vop.OpSobel)
	if len(el) != 3 {
		t.Fatalf("eligible for sobel = %v", el)
	}
	names := []string{"gpu", "dsp", "tpu"}
	for i, want := range names {
		if got := ctx.Reg.Get(el[i]).Name(); got != want {
			t.Fatalf("eligible[%d] = %s want %s", i, got, want)
		}
	}
	// GEMM is outside the DSP's domain.
	el = ctx.EligibleFor(vop.OpGEMM)
	if len(el) != 2 {
		t.Fatalf("eligible for GEMM = %v", el)
	}
	for _, i := range el {
		if ctx.Reg.Get(i).Name() == "dsp" {
			t.Fatal("DSP must not be eligible for GEMM")
		}
	}
}

// TestMultiTierTopK: on the DSP platform every top-K row deals a Sobel VOP
// out in the derived shares — K = 0.25 to the GPU, half the rest (0.375) to
// the DSP in the middle, the rest to the TPU — so 16 partitions in one
// window split 4 / 6 / 6.
func TestMultiTierTopK(t *testing.T) {
	ctx := fourCtx(t)
	for _, r := range Table {
		if r.Policy.Assignment != TopK {
			continue
		}
		hs := partitioned(t, 16) // Sobel HLOPs with graded criticality
		if _, err := r.Tuned(0.05).Assign(ctx, hs); err != nil {
			t.Fatal(err)
		}
		counts := map[string]int{}
		for _, h := range hs {
			counts[ctx.Reg.Get(h.AssignedQueue).Name()]++
		}
		if counts["gpu"] != 4 || counts["dsp"] != 6 || counts["tpu"] != 6 {
			t.Fatalf("%s: tier split = %v, want gpu:4 dsp:6 tpu:6", r.Key, counts)
		}
		// Accuracy ordering must follow criticality ordering tier-by-tier.
		rank := func(h *hlop.HLOP) int { return ctx.Reg.Get(h.AssignedQueue).AccuracyRank() }
		for _, a := range hs {
			for _, b := range hs {
				if a.Criticality > b.Criticality && rank(a) > rank(b) {
					t.Fatalf("%s: more critical partition on less accurate device (%g->%d vs %g->%d)",
						r.Key, a.Criticality, rank(a), b.Criticality, rank(b))
				}
			}
		}
		// Only the top tier carries the Critical flag.
		for _, h := range hs {
			if h.Critical != (ctx.Reg.Get(h.AssignedQueue).Name() == "gpu") {
				t.Fatalf("%s: Critical flag should mark exactly the top tier", r.Key)
			}
		}
	}
	// The deliberate change: IRA and the oracle used to split two ways and
	// left the DSP idle.
	for _, key := range []string{"IRA-sampling", "oracle"} {
		ref, _, _ := refFor(key, 0.05, 0.25, 16, 0)
		hs := partitioned(t, 16)
		if _, err := ref.Assign(ctx, hs); err != nil {
			t.Fatal(err)
		}
		for _, h := range hs {
			if ctx.Reg.Get(h.AssignedQueue).Name() == "dsp" {
				t.Fatalf("reference %s placed a partition on the DSP", key)
			}
		}
	}
}

func TestMultiTierDefaultFractions(t *testing.T) {
	hs := partitioned(t, 4)
	tiers := tierFractions(0.2, hs, 3)
	if len(tiers) != 3 {
		t.Fatalf("tiers = %v", tiers)
	}
	if tiers[0] != 0.2 {
		t.Fatalf("top tier = %g want 0.2", tiers[0])
	}
	var sum float64
	for _, f := range tiers {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("tier fractions sum to %g", sum)
	}
}

func TestMultiTierStealingRespectsChain(t *testing.T) {
	ctx := fourCtx(t)
	p := row(t, "QAWS-TS").Policy
	h := &hlop.HLOP{Op: vop.OpSobel}
	g := ctx.Reg.Index("gpu")
	d := ctx.Reg.Index("dsp")
	tq := ctx.Reg.Index("tpu")
	// Downward accuracy chain: gpu steals from dsp and tpu; dsp from tpu.
	if !p.CanSteal(ctx, g, d, h) || !p.CanSteal(ctx, g, tq, h) || !p.CanSteal(ctx, d, tq, h) {
		t.Fatal("higher-accuracy devices must drain lower-accuracy queues")
	}
	// Never upward.
	if p.CanSteal(ctx, tq, d, h) || p.CanSteal(ctx, tq, g, h) || p.CanSteal(ctx, d, g, h) {
		t.Fatal("lower-accuracy devices must not steal protected work")
	}
	// The DSP must not steal ops outside its domain even from the TPU.
	gemm := &hlop.HLOP{Op: vop.OpGEMM}
	if p.CanSteal(ctx, d, tq, gemm) {
		t.Fatal("a device must not steal an opcode it has no HLOP for")
	}
}

func TestWorkStealingSkipsUnsupportedOps(t *testing.T) {
	ctx := fourCtx(t)
	ws := row(t, "work-stealing").Policy
	gemm := &hlop.HLOP{Op: vop.OpGEMM}
	if ws.CanSteal(ctx, ctx.Reg.Index("dsp"), ctx.Reg.Index("tpu"), gemm) {
		t.Fatal("work stealing must respect HLOP coverage")
	}
}

func TestAssignmentSkipsUnsupportedDevices(t *testing.T) {
	ctx := fourCtx(t)
	// GEMM HLOPs must never be assigned to the DSP by any policy.
	m := partitionedGEMM(t)
	for _, r := range Table {
		if r.Policy.Assignment == OneDevice {
			continue
		}
		for _, h := range m {
			h.AssignedQueue = 0
		}
		if _, err := r.Tuned(0.05).Assign(ctx, m); err != nil {
			t.Fatalf("%s: %v", r.Key, err)
		}
		for _, h := range m {
			if ctx.Reg.Get(h.AssignedQueue).Name() == "dsp" {
				t.Fatalf("%s assigned GEMM to the DSP", r.Key)
			}
		}
	}
}

func partitionedGEMM(t *testing.T) []*hlop.HLOP {
	t.Helper()
	a := filledMatrix(64, 32, 1)
	b := filledMatrix(32, 48, 2)
	v, err := vop.New(vop.OpGEMM, a, b)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := hlop.Partition(v, hlop.Spec{TargetPartitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	return hs
}

func filledMatrix(rows, cols int, seed int64) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	x := float64(seed)
	for i := range m.Data {
		x = x*1103515245 + 12345
		m.Data[i] = float64(int64(x)%1000) / 1000
	}
	return m
}
