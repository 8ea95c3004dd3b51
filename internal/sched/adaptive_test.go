package sched

import (
	"math"
	"math/rand"
	"testing"

	"shmt/internal/device"
	"shmt/internal/device/cpu"
	"shmt/internal/device/dsp"
	"shmt/internal/device/gpu"
	"shmt/internal/device/tpu"
	"shmt/internal/hlop"
)

// TestAdaptivePricingInputs holds the two things core's pricing reads from a
// policy to what Assign does, over random VOPs, partition counts, K, windows,
// rates, scales, deadline pressures and quarantine masks on the stock and
// DSP platforms: NeutralTopK is assignTopK over equally critical partitions,
// and SamplingCost is the overhead Assign charges, bit for bit.
func TestAdaptivePricingInputs(t *testing.T) {
	withDSP, err := device.NewRegistry(cpu.New(1), gpu.New(gpu.Config{}), dsp.New(dsp.Config{}), tpu.New(tpu.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	regs := []*device.Registry{testCtx(t).Reg, withDSP}
	r := rand.New(rand.NewSource(38))
	for trial := 0; trial < 24; trial++ {
		v := randomVOP(t, r)
		v.DeadlinePressure = []float64{0, 0, r.Float64(), 1.5}[r.Intn(4)]
		spec := hlop.Spec{TargetPartitions: 1 + r.Intn(48), MinTile: 8}
		for _, row := range Table {
			pol := row.Tuned([]float64{0, 1.0 / (1 << 8), 0.05}[r.Intn(3)])
			pol.K = []float64{0, r.Float64()}[r.Intn(2)]
			if pol.Window > 0 {
				pol.Window = []int{16, 1 + r.Intn(24)}[r.Intn(2)]
			}
			for _, reg := range regs {
				mask := r.Intn(1 << reg.Len())
				ctx := &Context{Reg: reg, Seed: r.Int63(), HostScale: []float64{1, 16}[r.Intn(2)],
					Quarantined: func(i int) bool { return mask>>i&1 == 1 }}
				hs, err := hlop.Partition(v, spec)
				if err != nil {
					t.Fatal(err)
				}
				cost := pol.SamplingCost(ctx, hs)
				if pol.Assignment == TopK {
					ordered := ctx.EligibleFor(v.Op)
					queues := make([]int, len(hs))
					pol.NeutralTopK(ordered, hs, queues)
					pol.assignTopK(ordered, hs) // every Criticality is still 0
					for i, h := range hs {
						if h.AssignedQueue != queues[i] {
							t.Fatalf("trial %d %s: HLOP %d of %d neutral on %d, top-K on %d", trial, row.Key, i, len(hs), queues[i], h.AssignedQueue)
						}
					}
				}
				ovh, err := pol.Assign(ctx, hs)
				if err != nil {
					t.Fatal(err)
				}
				if pol.Source != Sampled && cost != 0 ||
					pol.Source == Sampled && math.Float64bits(cost) != math.Float64bits(ovh) {
					t.Fatalf("trial %d %s: SamplingCost %.17g, Assign charged %.17g", trial, row.Key, cost, ovh)
				}
			}
		}
	}
}
