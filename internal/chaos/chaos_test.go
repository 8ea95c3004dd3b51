package chaos

import (
	"errors"
	"math"
	"testing"

	"shmt/internal/device/cpu"
	"shmt/internal/tensor"
	"shmt/internal/vop"
	"shmt/internal/workload"
)

func mat(t *testing.T, side int, seed int64) *tensor.Matrix {
	t.Helper()
	return workload.Uniform(side, side, 0, 1, seed)
}

func TestWrapDisabledReturnsInner(t *testing.T) {
	inner := cpu.New(1)
	if Wrap(inner, Config{Seed: 7}) != inner {
		t.Fatal("a config that injects nothing must not wrap")
	}
}

func TestDeterministicSchedule(t *testing.T) {
	// The same seed must reproduce the same per-op-index fault decisions
	// regardless of wrapper instance.
	run := func() []bool {
		d := Wrap(cpu.New(1), Config{Seed: 42, TransientRate: 0.3}).(*Device)
		outcomes := make([]bool, 64)
		in := []*tensor.Matrix{mat(t, 8, 1)}
		for i := range outcomes {
			_, err := d.ExecuteInto(vop.OpSobel, in, nil, nil)
			outcomes[i] = err != nil
		}
		return outcomes
	}
	a, b := run(), run()
	var fails int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault schedules diverge at op %d", i)
		}
		if a[i] {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("transient rate 0.3 produced %d/%d failures", fails, len(a))
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	sched := func(seed int64) []bool {
		d := Wrap(cpu.New(1), Config{Seed: seed, TransientRate: 0.5}).(*Device)
		in := []*tensor.Matrix{mat(t, 8, 1)}
		out := make([]bool, 64)
		for i := range out {
			_, err := d.ExecuteInto(vop.OpSobel, in, nil, nil)
			out[i] = err != nil
		}
		return out
	}
	a, b := sched(1), sched(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

func TestFailFirstOpsOutage(t *testing.T) {
	d := Wrap(cpu.New(1), Config{Seed: 1, FailFirstOps: 3}).(*Device)
	in := []*tensor.Matrix{mat(t, 8, 2)}
	for i := 0; i < 3; i++ {
		if _, err := d.ExecuteInto(vop.OpSobel, in, nil, nil); !errors.Is(err, ErrTransient) {
			t.Fatalf("op %d: want ErrTransient, got %v", i, err)
		}
	}
	if _, err := d.ExecuteInto(vop.OpSobel, in, nil, nil); err != nil {
		t.Fatalf("op 3 after the outage: %v", err)
	}
}

func TestDieAfterOps(t *testing.T) {
	d := Wrap(cpu.New(1), Config{Seed: 1, DieAfterOps: 2}).(*Device)
	in := []*tensor.Matrix{mat(t, 8, 3)}
	for i := 0; i < 2; i++ {
		if _, err := d.ExecuteInto(vop.OpSobel, in, nil, nil); err != nil {
			t.Fatalf("op %d before death: %v", i, err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := d.ExecuteInto(vop.OpSobel, in, nil, nil); !errors.Is(err, ErrDead) {
			t.Fatalf("op after death: want ErrDead, got %v", err)
		}
	}
	if !d.dead.Load() {
		t.Fatal("the wrapper should record the permanent death")
	}
}

func TestLatencyMultiplierScalesCostModel(t *testing.T) {
	inner := cpu.New(1)
	d := Wrap(inner, Config{Seed: 1, LatencyMultiplier: 4})
	if got, want := d.ExecTime(vop.OpSobel, 1<<16), 4*inner.ExecTime(vop.OpSobel, 1<<16); got != want {
		t.Fatalf("ExecTime = %g want %g", got, want)
	}
	if got, want := d.DispatchOverhead(), 4*inner.DispatchOverhead(); got != want {
		t.Fatalf("DispatchOverhead = %g want %g", got, want)
	}
}

func TestSpikeAccumulatesInjectedDelay(t *testing.T) {
	d := Wrap(cpu.New(1), Config{Seed: 5, SpikeRate: 1, SpikeMultiplier: 3}).(*Device)
	in := []*tensor.Matrix{mat(t, 16, 4)}
	if _, err := d.ExecuteInto(vop.OpSobel, in, nil, nil); err != nil {
		t.Fatal(err)
	}
	got := d.TakeInjectedDelay()
	want := 2 * (cpu.New(1).ExecTime(vop.OpSobel, 16*16) + cpu.New(1).DispatchOverhead())
	if got != want {
		t.Fatalf("injected delay = %g want %g", got, want)
	}
	if d.TakeInjectedDelay() != 0 {
		t.Fatal("TakeInjectedDelay must drain")
	}
}

func TestCorruptionPerturbsOutputDeterministically(t *testing.T) {
	in := []*tensor.Matrix{mat(t, 32, 5)}
	clean, err := cpu.New(1).ExecuteInto(vop.OpSobel, in, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *tensor.Matrix {
		d := Wrap(cpu.New(1), Config{Seed: 9, CorruptRate: 1}).(*Device)
		out, err := d.ExecuteInto(vop.OpSobel, in, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if a.Equal(clean) {
		t.Fatal("corruption rate 1 left the output untouched")
	}
	if !a.Equal(b) {
		t.Fatal("corruption is not deterministic for a fixed seed")
	}
	// Only a stripe is perturbed; most of the output must survive intact.
	var diff int
	for i := range a.Data {
		if a.Data[i] != clean.Data[i] {
			diff++
		}
	}
	if diff == 0 || diff > len(a.Data)/2 {
		t.Fatalf("corruption touched %d/%d elements", diff, len(a.Data))
	}
}

func TestCorruptionThroughViewStaysInRegion(t *testing.T) {
	parent := tensor.NewMatrix(32, 32)
	view, err := parent.View(tensor.Region{Row: 8, Col: 0, Height: 8, Width: 32})
	if err != nil {
		t.Fatal(err)
	}
	// Fill the view's region with ones through the parent, then corrupt the
	// view; rows outside [8,16) must stay zero.
	for r := 8; r < 16; r++ {
		for c := 0; c < 32; c++ {
			parent.Data[r*32+c] = 1
		}
	}
	corrupt(view, 3, 0, 0.5)
	for r := 0; r < 32; r++ {
		for c := 0; c < 32; c++ {
			v := parent.Data[r*32+c]
			if r < 8 || r >= 16 {
				if v != 0 {
					t.Fatalf("corruption escaped the view at (%d,%d)", r, c)
				}
			} else if v != 1 && v != 1.5 {
				t.Fatalf("unexpected value %g inside the view at (%d,%d)", v, r, c)
			}
		}
	}
}

func TestParseSpec(t *testing.T) {
	plans, err := ParseSpec("tpu:die=5;gpu:transient=0.2,latmul=4", 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 2 {
		t.Fatalf("parsed %d plans", len(plans))
	}
	if p := plans["tpu"]; p.DieAfterOps != 5 || p.Seed != 7 {
		t.Fatalf("tpu plan = %+v", p)
	}
	if p := plans["gpu"]; p.TransientRate != 0.2 || p.LatencyMultiplier != 4 {
		t.Fatalf("gpu plan = %+v", p)
	}

	for _, bad := range []string{
		"",                    // empty
		"tpu",                 // no plan
		"tpu:die",             // not key=value
		"tpu:die=x",           // bad value
		"tpu:die=-1",          // negative
		"tpu:bogus=1",         // unknown key
		"tpu:die=1;tpu:die=2", // duplicate device
		"tpu:latmul=0",        // injects nothing
		// Each of these was accepted once: non-finite values, probabilities
		// above 1, counts that are fractional or overflow an int32, and
		// multipliers below 1 that Wrap would silently drop or replace.
		"gpu:spike=0.5,spikemul=NaN",
		"gpu:corrupt=0.5,corruptmag=NaN",
		"tpu:transient=0.1,die=Inf",
		"tpu:latmul=+Inf",
		"tpu:transient=0.1,failfirst=1e300",
		"tpu:failfirst=2147483648",
		"tpu:die=2.5",
		"tpu:transient=1.5",
		"gpu:corrupt=2",
		"tpu:die=5,latmul=0.5",
		"gpu:spike=0.5,spikemul=0.5",
	} {
		if _, err := ParseSpec(bad, 1); err == nil {
			t.Fatalf("ParseSpec(%q) should fail", bad)
		}
	}
}

// FuzzParseSpec: ParseSpec never panics, and every plan it accepts injects
// something and holds only finite, in-range values.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"tpu:die=5;gpu:transient=0.2,latmul=4",
		"gpu:spike=0.5,spikemul=NaN",
		"tpu:transient=0.1,failfirst=1e300",
		"dsp:corrupt=1,corruptmag=0.5;cpu:spike=0,latmul=1.5",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		plans, err := ParseSpec(spec, 1)
		if err != nil {
			return
		}
		for name, c := range plans {
			for _, x := range []float64{c.TransientRate, c.SpikeRate, c.CorruptRate,
				c.LatencyMultiplier, c.SpikeMultiplier, c.CorruptMagnitude} {
				if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
					t.Fatalf("%q: %s: non-finite or negative field in %+v", spec, name, c)
				}
			}
			if c.TransientRate > 1 || c.SpikeRate > 1 || c.CorruptRate > 1 {
				t.Fatalf("%q: %s: probability above 1 in %+v", spec, name, c)
			}
			if c.FailFirstOps < 0 || c.DieAfterOps < 0 || c.FailFirstOps > math.MaxInt32 || c.DieAfterOps > math.MaxInt32 {
				t.Fatalf("%q: %s: count out of range in %+v", spec, name, c)
			}
			if (c.LatencyMultiplier != 0 && c.LatencyMultiplier < 1) || (c.SpikeMultiplier != 0 && c.SpikeMultiplier < 1) {
				t.Fatalf("%q: %s: multiplier below 1 in %+v", spec, name, c)
			}
			if !c.enabled() {
				t.Fatalf("%q: %s: accepted a plan that injects nothing: %+v", spec, name, c)
			}
		}
	})
}
