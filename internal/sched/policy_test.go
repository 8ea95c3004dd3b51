package sched

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"shmt/internal/device"
	"shmt/internal/device/cpu"
	"shmt/internal/device/dsp"
	"shmt/internal/device/gpu"
	"shmt/internal/device/tpu"
	"shmt/internal/hlop"
	"shmt/internal/vop"
)

// FuzzTopK drives the top-K rule on fuzzed criticalities, partition counts,
// K, windows and deadline pressure over the 3-device and the 4-device (DSP)
// registries under every quarantine mask the fuzzer picks, and checks the
// rule's invariants: every HLOP lands on a queue Context.EligibleFor offers
// (one that supports the op whenever any eligible queue does), Critical
// holds exactly on the most accurate of them, and within a window no
// partition sits on a less accurate device than a less critical one.
func FuzzTopK(f *testing.F) {
	f.Add(int64(1), uint8(16), 0.25, uint8(16), 0.0, uint8(0), false, false)
	f.Add(int64(2), uint8(64), 0.0, uint8(0), 0.5, uint8(2), true, false)
	f.Add(int64(3), uint8(7), 1.5, uint8(3), 1.0, uint8(5), true, true)
	f.Add(int64(4), uint8(1), -1.0, uint8(200), math.NaN(), uint8(15), false, true)
	three, _ := device.NewRegistry(cpu.New(1), gpu.New(gpu.Config{}), tpu.New(tpu.Config{}))
	four, _ := device.NewRegistry(cpu.New(1), gpu.New(gpu.Config{}), dsp.New(dsp.Config{}), tpu.New(tpu.Config{}))
	f.Fuzz(func(t *testing.T, seed int64, parts uint8, k float64, window uint8, pressure float64, mask uint8, withDSP, gemm bool) {
		reg, op := three, vop.OpSobel
		if withDSP {
			reg = four
		}
		if gemm {
			op = vop.OpGEMM
		}
		ctx := &Context{Reg: reg, Quarantined: func(i int) bool { return mask>>i&1 == 1 }}
		parent := &vop.VOP{Op: op, DeadlinePressure: pressure}
		r := rand.New(rand.NewSource(seed))
		hs := make([]*hlop.HLOP, 1+int(parts)%96)
		for i := range hs {
			// Few distinct values, so ties occur.
			hs[i] = &hlop.HLOP{ID: i, Op: op, Parent: parent, Criticality: float64(r.Intn(8))}
		}
		pol := Policy{Name: "top-K", Assignment: TopK, K: k, Window: int(window)}
		if _, err := pol.Assign(ctx, hs); err != nil {
			t.Fatal(err)
		}
		ordered := ctx.EligibleFor(op)
		anySupports := slices.ContainsFunc(ordered, func(q int) bool { return reg.Get(q).Supports(op) })
		rank := func(h *hlop.HLOP) int { return reg.Get(h.AssignedQueue).AccuracyRank() }
		w := int(window)
		if w == 0 {
			w = len(hs)
		}
		for i, h := range hs {
			if !slices.Contains(ordered, h.AssignedQueue) {
				t.Fatalf("HLOP %d on queue %d, eligible %v", i, h.AssignedQueue, ordered)
			}
			if anySupports && !reg.Get(h.AssignedQueue).Supports(op) {
				t.Fatalf("HLOP %d on %s, which has no %s", i, reg.Get(h.AssignedQueue).Name(), op)
			}
			if h.Critical != (h.AssignedQueue == ordered[0]) {
				t.Fatalf("HLOP %d critical %v on queue %d, most accurate %d", i, h.Critical, h.AssignedQueue, ordered[0])
			}
			for _, o := range hs[i/w*w : min(i/w*w+w, len(hs))] {
				if h.Criticality > o.Criticality && rank(h) > rank(o) {
					t.Fatalf("HLOP %d (criticality %g) on rank %d, less critical HLOP %d (%g) on rank %d",
						i, h.Criticality, rank(h), o.ID, o.Criticality, rank(o))
				}
			}
		}
	})
}
