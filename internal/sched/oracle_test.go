package sched

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"shmt/internal/device"
	"shmt/internal/device/gpu"
	"shmt/internal/device/tpu"
	"shmt/internal/hlop"
	"shmt/internal/sampling"
	"shmt/internal/vop"
	"shmt/internal/workload"
)

// The six policy types the Table replaced, kept as the reference the merged
// Policy is checked against (TestPolicyRowsMatchTheReference). Apart from
// the interface's name (refPolicy), QAWS.Name inlining the assignment prefix
// and QAWS reusing the package's Assignment constants, they are the code as
// it ran before the merge.

// randomVOP draws an op (vector, tile with halo, two-input GEMM), a shape and
// a criticality profile.
func randomVOP(t *testing.T, r *rand.Rand) *vop.VOP {
	t.Helper()
	side := 32 + r.Intn(97)
	prof := workload.Profile{CriticalFraction: r.Float64() / 2, TileSize: 8 << r.Intn(3)}
	in := workload.Mixed(side, side, prof, r.Int63())
	var v *vop.VOP
	var err error
	switch r.Intn(3) {
	case 0:
		v, err = vop.New(vop.OpSobel, in)
	case 1:
		v, err = vop.New(vop.OpRelu, in)
	default:
		v, err = vop.New(vop.OpGEMM, in, workload.Mixed(side, 24, prof, r.Int63()))
	}
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestPolicyRowsMatchTheReference is the proof that the Table reproduces the
// six policy types it replaced: for every row, on the stock
// CPU+GPU+TPU registry and an accelerator-only one, under every quarantine
// mask, over random VOPs, partition counts, K, windows, rates, TPU limits
// and seeds at zero deadline pressure, the assignment, the criticality flags
// and values and the charged overhead are bit-equal, and so is every steal
// decision. The one difference is deliberate: when a single queue is
// eligible, IRA and the oracle now mark every partition Critical, as
// QAWS-T always has — Critical holds exactly on the most accurate queue.
func TestPolicyRowsMatchTheReference(t *testing.T) {
	accelOnly, err := device.NewRegistry(gpu.New(gpu.Config{}), tpu.New(tpu.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	regs := []*device.Registry{testCtx(t).Reg, accelOnly}
	r := rand.New(rand.NewSource(31))
	trials, oneQueue := 24, 0
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		v := randomVOP(t, r)
		spec := hlop.Spec{TargetPartitions: 1 + r.Intn(48), MinTile: 8}
		rate := []float64{0, 1.0 / (1 << 15), 1.0 / (1 << 8), 0.05}[r.Intn(4)]
		k := []float64{0, r.Float64(), 1 + r.Float64()}[r.Intn(3)]
		w := []int{0, 1 + r.Intn(24)}[r.Intn(2)]
		lim := []float64{0, 0.5 + 3*r.Float64()}[r.Intn(2)]
		seed, scale := r.Int63(), []float64{1, 16}[r.Intn(2)]
		for _, reg := range regs {
			for mask := 0; mask < 1<<reg.Len(); mask++ {
				ctx := &Context{Reg: reg, Seed: seed, HostScale: scale,
					Quarantined: func(i int) bool { return mask>>i&1 == 1 }}
				single := len(ctx.EligibleFor(v.Op)) == 1
				for _, row := range Table {
					ref, refDB, err := refFor(row.Key, rate, k, w, lim)
					if err != nil {
						t.Fatal(err)
					}
					pol := row.Tuned(rate)
					pol.K, pol.TPULimit = k, lim
					if pol.Window > 0 && w > 0 {
						pol.Window = w
					}
					where := fmt.Sprintf("trial %d, %s, %s, %d devices, quarantine mask %b", trial, row.Key, v.Op, reg.Len(), mask)
					if ref.Name() != pol.Name || refDB != row.DoubleBuffer {
						t.Fatalf("%s: name %q / double-buffer %v, reference %q / %v", where, pol.Name, row.DoubleBuffer, ref.Name(), refDB)
					}
					want, err := hlop.Partition(v, spec)
					if err != nil {
						t.Fatal(err)
					}
					got, _ := hlop.Partition(v, spec)
					wantOvh, wantErr := ref.Assign(ctx, want)
					gotOvh, gotErr := pol.Assign(ctx, got)
					if (wantErr == nil) != (gotErr == nil) || math.Float64bits(wantOvh) != math.Float64bits(gotOvh) {
						t.Fatalf("%s: overhead %v (%v), reference %v (%v)", where, gotOvh, gotErr, wantOvh, wantErr)
					}
					for i, h := range got {
						wantCrit := want[i].Critical
						if single && pol.Assignment == TopK && pol.Window == 0 && !wantCrit {
							wantCrit = true
							oneQueue++
						}
						if h.AssignedQueue != want[i].AssignedQueue || h.Critical != wantCrit ||
							math.Float64bits(h.Criticality) != math.Float64bits(want[i].Criticality) {
							t.Fatalf("%s: HLOP %d of %d on %d critical %v (%g), reference %d %v (%g)", where, i, len(got),
								h.AssignedQueue, h.Critical, h.Criticality, want[i].AssignedQueue, wantCrit, want[i].Criticality)
						}
					}
					for thief := 0; thief < reg.Len(); thief++ {
						for victim := 0; victim < reg.Len(); victim++ {
							wantSteal := ref.StealingEnabled() && ref.CanSteal(ctx, thief, victim, got[0])
							if gotSteal := pol.Steal != NoSteal && pol.CanSteal(ctx, thief, victim, got[0]); gotSteal != wantSteal {
								t.Fatalf("%s: steal %d←%d = %v, reference %v", where, thief, victim, gotSteal, wantSteal)
							}
						}
					}
				}
			}
		}
	}
	if oneQueue == 0 {
		t.Fatal("no trial reached IRA or the oracle with a single eligible queue")
	}
}

// refPolicy is the interface the six types implemented.
type refPolicy interface {
	Name() string
	Assign(ctx *Context, hs []*hlop.HLOP) (overheadSec float64, err error)
	StealingEnabled() bool
	CanSteal(ctx *Context, thief, victim int, h *hlop.HLOP) bool
}

// refFor is the policy switch the Table replaced: the named policy with the
// Config's rate, K, window and TPU limit, and whether the engine
// double-buffers under it.
func refFor(key string, rate, k float64, w int, lim float64) (refPolicy, bool, error) {
	qaws := func(a Assignment, m sampling.Method) (refPolicy, bool, error) {
		return QAWS{Assignment: a, Method: m, Rate: rate, K: k, W: w, DefaultTPULimit: lim}, true, nil
	}
	switch key {
	case "gpu-baseline":
		return SingleDevice{Device: "gpu"}, false, nil
	case "sw-pipelining":
		return SingleDevice{Device: "gpu"}, true, nil
	case "tpu-only":
		return SingleDevice{Device: "tpu"}, true, nil
	case "cpu-only":
		return SingleDevice{Device: "cpu"}, false, nil
	case "even-distribution":
		return EvenDistribution{}, false, nil
	case "work-stealing":
		return WorkStealing{}, true, nil
	case "QAWS-TS":
		return qaws(TopK, sampling.Striding)
	case "QAWS-TU":
		return qaws(TopK, sampling.UniformRandom)
	case "QAWS-TR":
		return qaws(TopK, sampling.Reduction)
	case "QAWS-LS":
		return qaws(DeviceLimits, sampling.Striding)
	case "QAWS-LU":
		return qaws(DeviceLimits, sampling.UniformRandom)
	case "QAWS-LR":
		return qaws(DeviceLimits, sampling.Reduction)
	case "IRA-sampling":
		return IRASampling{K: k}, true, nil
	case "oracle":
		return Oracle{K: k}, true, nil
	case "QAWS-TS/adaptive":
		// Its Assign is the partitioned branch, QAWS-TS; the one-device
		// branch is the engine's pricing and has no counterpart here.
		ref, db, err := qaws(TopK, sampling.Striding)
		return renamed{ref, key}, db, err
	default:
		return nil, false, fmt.Errorf("shmt: unknown policy %q", key)
	}
}

// renamed is a reference policy under another row's name.
type renamed struct {
	refPolicy
	name string
}

func (r renamed) Name() string { return r.name }

// SingleDevice routes every HLOP to one named device.
type SingleDevice struct {
	Device string
}

func (p SingleDevice) Name() string { return p.Device + "-only" }

func (p SingleDevice) Assign(ctx *Context, hs []*hlop.HLOP) (float64, error) {
	q := ctx.Reg.Index(p.Device)
	if q < 0 {
		return 0, fmt.Errorf("sched: no device named %q", p.Device)
	}
	for _, h := range hs {
		h.AssignedQueue = q
	}
	return 0, nil
}

func (p SingleDevice) StealingEnabled() bool { return false }

func (p SingleDevice) CanSteal(*Context, int, int, *hlop.HLOP) bool { return false }

// EvenDistribution round-robins HLOPs across the accelerators, no stealing.
type EvenDistribution struct{}

func (EvenDistribution) Name() string { return "even-distribution" }

func (EvenDistribution) Assign(ctx *Context, hs []*hlop.HLOP) (float64, error) {
	if len(hs) == 0 {
		return 0, nil
	}
	el := ctx.EligibleFor(hs[0].Op)
	for i, h := range hs {
		h.AssignedQueue = el[i%len(el)]
	}
	return 0, validateQueues(ctx, hs)
}

func (EvenDistribution) StealingEnabled() bool { return false }

func (EvenDistribution) CanSteal(*Context, int, int, *hlop.HLOP) bool { return false }

// WorkStealing is §3.4's basic scheduler: an even plan, then free stealing.
type WorkStealing struct{}

func (WorkStealing) Name() string { return "work-stealing" }

func (WorkStealing) Assign(ctx *Context, hs []*hlop.HLOP) (float64, error) {
	if len(hs) == 0 {
		return 0, nil
	}
	el := ctx.EligibleFor(hs[0].Op)
	for i, h := range hs {
		h.AssignedQueue = el[i%len(el)]
	}
	return 0, validateQueues(ctx, hs)
}

func (WorkStealing) StealingEnabled() bool { return true }

func (WorkStealing) CanSteal(ctx *Context, thief, victim int, h *hlop.HLOP) bool {
	return thief != victim && ctx.IsEligible(thief) && ctx.Reg.Get(thief).Supports(h.Op)
}

// IRASampling computes a canary per partition, then ranks the whole VOP
// into two tiers.
type IRASampling struct {
	K float64
}

func (IRASampling) Name() string { return "IRA-sampling" }

func (p IRASampling) Assign(ctx *Context, hs []*hlop.HLOP) (float64, error) {
	if len(hs) == 0 {
		return 0, nil
	}
	s := sampling.New(sampling.Striding, IRACanaryRate, ctx.Seed)
	var overhead float64
	var cpu device.Device
	for _, d := range ctx.Reg.Devices() {
		if d.Kind() == device.CPU {
			cpu = d
			break
		}
	}
	for _, h := range hs {
		vals := s.SampleRegion(h.Inputs[0], h.InputRegion())
		h.Criticality = sampling.Criticality(vals)
		canaryElems := len(vals)
		if cpu != nil {
			overhead += cpu.ExecTime(h.Op, canaryElems) + cpu.DispatchOverhead()
		} else {
			overhead += float64(canaryElems) * TouchCostStriding * 50 * ctx.hostScale()
		}
		overhead += float64(canaryElems)*TouchCostStriding*ctx.hostScale() + PerPartitionCost
	}

	k := p.K
	if k <= 0 {
		k = 0.25
	}
	ordered := ctx.EligibleFor(hs[0].Op)
	accurate, loose := ordered[0], ordered[len(ordered)-1]
	ranked := make([]*hlop.HLOP, len(hs))
	copy(ranked, hs)
	sort.SliceStable(ranked, func(a, b int) bool {
		return ranked[a].Criticality > ranked[b].Criticality
	})
	topK := int(float64(len(ranked))*k + 0.5)
	for i, h := range ranked {
		if i < topK {
			h.AssignedQueue = accurate
			h.Critical = true
		} else {
			h.AssignedQueue = loose
		}
	}
	return overhead, validateQueues(ctx, hs)
}

func (IRASampling) StealingEnabled() bool { return true }

func (IRASampling) CanSteal(ctx *Context, thief, victim int, h *hlop.HLOP) bool {
	if thief == victim || !ctx.IsEligible(thief) || !ctx.Reg.Get(thief).Supports(h.Op) {
		return false
	}
	return ctx.Reg.Get(thief).AccuracyRank() <= ctx.Reg.Get(victim).AccuracyRank()
}

// Oracle ranks the whole VOP by a free full scan.
type Oracle struct {
	K float64
}

func (Oracle) Name() string { return "oracle" }

func (p Oracle) Assign(ctx *Context, hs []*hlop.HLOP) (float64, error) {
	if len(hs) == 0 {
		return 0, nil
	}
	for _, h := range hs {
		reg := h.InputRegion()
		vals := make([]float64, 0, reg.Len())
		for i := 0; i < reg.Height; i++ {
			row := (reg.Row + i) * h.Inputs[0].Cols
			vals = append(vals, h.Inputs[0].Data[row+reg.Col:row+reg.Col+reg.Width]...)
		}
		h.Criticality = sampling.Criticality(vals)
	}
	k := p.K
	if k <= 0 {
		k = 0.25
	}
	ordered := ctx.EligibleFor(hs[0].Op)
	accurate, loose := ordered[0], ordered[len(ordered)-1]
	ranked := make([]*hlop.HLOP, len(hs))
	copy(ranked, hs)
	sort.SliceStable(ranked, func(a, b int) bool {
		return ranked[a].Criticality > ranked[b].Criticality
	})
	topK := int(float64(len(ranked))*k + 0.5)
	for i, h := range ranked {
		if i < topK {
			h.AssignedQueue = accurate
			h.Critical = true
		} else {
			h.AssignedQueue = loose
		}
	}
	return 0, validateQueues(ctx, hs)
}

func (Oracle) StealingEnabled() bool { return false }

func (Oracle) CanSteal(*Context, int, int, *hlop.HLOP) bool { return false }

// Limit is one entry of Algorithm 1's explicit limit table.
type Limit struct {
	Max   float64
	Queue int
}

// QAWS is the QAWS-{T,L}{S,U,R} family.
type QAWS struct {
	Assignment      Assignment
	Method          sampling.Method
	Rate            float64
	K               float64
	W               int
	Tiers           []float64
	Limits          []Limit
	DefaultTPULimit float64
}

func (p QAWS) Name() string {
	prefix := "T"
	if p.Assignment == DeviceLimits {
		prefix = "L"
	}
	return "QAWS-" + prefix + suffix(p.Method)
}

// suffix is the paper's one-letter name of a sampling method in QAWS-XS
// policy names: S, U or R, the initial of Method.String.
func suffix(m sampling.Method) string { return strings.ToUpper(m.String()[:1]) }

func (p QAWS) rate() float64 {
	if p.Rate > 0 {
		return p.Rate
	}
	return 1.0 / (1 << 15)
}

func (p QAWS) Assign(ctx *Context, hs []*hlop.HLOP) (float64, error) {
	if len(hs) == 0 {
		return 0, nil
	}
	s := sampling.New(p.Method, p.rate(), ctx.Seed)
	overhead := samplePartitions(ctx, s, hs)

	switch p.Assignment {
	case TopK:
		p.assignTopK(ctx, hs)
	case DeviceLimits:
		p.assignLimits(ctx, hs)
	default:
		return 0, fmt.Errorf("sched: unknown QAWS assignment %d", int(p.Assignment))
	}
	return overhead, validateQueues(ctx, hs)
}

func (p QAWS) assignTopK(ctx *Context, hs []*hlop.HLOP) {
	w := p.W
	if w <= 0 {
		w = 16
	}
	ordered := ctx.EligibleFor(hs[0].Op)
	tiers := p.tierFractions(hs, len(ordered))

	for start := 0; start < len(hs); start += w {
		end := start + w
		if end > len(hs) {
			end = len(hs)
		}
		window := make([]*hlop.HLOP, end-start)
		copy(window, hs[start:end])
		sort.SliceStable(window, func(a, b int) bool {
			return window[a].Criticality > window[b].Criticality
		})
		j := 0
		for tier, frac := range tiers {
			take := len(window) - j
			if tier < len(tiers)-1 {
				take = int(float64(len(window))*frac + 0.5)
				if take > len(window)-j {
					take = len(window) - j
				}
			}
			for n := 0; n < take; n++ {
				window[j].AssignedQueue = ordered[tier]
				window[j].Critical = tier == 0
				j++
			}
		}
		for ; j < len(window); j++ {
			window[j].AssignedQueue = ordered[len(ordered)-1]
			window[j].Critical = false
		}
	}
}

func (p QAWS) tierFractions(hs []*hlop.HLOP, devices int) []float64 {
	if devices < 1 {
		return nil
	}
	if len(p.Tiers) > 0 {
		tiers := make([]float64, devices)
		copy(tiers, p.Tiers)
		return tiers
	}
	k := p.K
	if k <= 0 {
		k = 0.25
	}
	if k > 1 {
		k = 1
	}
	if pr := deadlinePressure(hs); pr > 0 {
		k += (1 - k) * pr
	}
	tiers := make([]float64, devices)
	tiers[0] = k
	if devices > 2 {
		mid := (1 - k) / 2 / float64(devices-2)
		for i := 1; i < devices-1; i++ {
			tiers[i] = mid
		}
	}
	if devices > 1 {
		var used float64
		for _, f := range tiers[:devices-1] {
			used += f
		}
		tiers[devices-1] = 1 - used
	}
	return tiers
}

func (p QAWS) assignLimits(ctx *Context, hs []*hlop.HLOP) {
	ordered := ctx.EligibleFor(hs[0].Op)
	limits := p.Limits
	if len(limits) == 0 {
		lim := p.DefaultTPULimit
		if lim <= 0 {
			lim = 1.5
		}
		limits = []Limit{{Max: lim * medianCriticality(hs), Queue: ordered[len(ordered)-1]}}
	}
	sorted := append([]Limit(nil), limits...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].Max < sorted[b].Max })
	if pr := deadlinePressure(hs); pr > 0 {
		for i := range sorted {
			sorted[i].Max *= 1 - pr
		}
	}
	def := ordered[0]

	for _, h := range hs {
		h.AssignedQueue = def
		h.Critical = true
		for _, l := range sorted {
			if h.Criticality < l.Max {
				h.AssignedQueue = l.Queue
				h.Critical = l.Queue == def
				break
			}
		}
	}
}

func (QAWS) StealingEnabled() bool { return true }

func (p QAWS) CanSteal(ctx *Context, thief, victim int, h *hlop.HLOP) bool {
	if thief == victim || !ctx.IsEligible(thief) || !ctx.Reg.Get(thief).Supports(h.Op) {
		return false
	}
	return ctx.Reg.Get(thief).AccuracyRank() <= ctx.Reg.Get(victim).AccuracyRank()
}
