package energy

import (
	"math"
	"testing"
)

func TestPeakPowersMatchPaper(t *testing.T) {
	m := DefaultModel()
	// §5.5: idle 3.02 W, GPU baseline 4.67 W, SHMT (GPU+TPU) 5.23 W.
	if got := m.PeakPower(nil); math.Abs(got-3.02) > 1e-9 {
		t.Fatalf("idle peak = %g want 3.02", got)
	}
	if got := m.PeakPower([]string{"gpu"}); math.Abs(got-4.67) > 1e-9 {
		t.Fatalf("GPU baseline peak = %g want 4.67", got)
	}
	if got := m.PeakPower([]string{"gpu", "tpu"}); math.Abs(got-5.23) > 1e-9 {
		t.Fatalf("SHMT peak = %g want 5.23", got)
	}
}

func TestEnergyIntegration(t *testing.T) {
	m := DefaultModel()
	u := Usage{Makespan: 10, Busy: map[string]float64{"gpu": 10}}
	b := m.Energy(u)
	if math.Abs(b.Idle-30.2) > 1e-9 {
		t.Fatalf("idle energy = %g want 30.2", b.Idle)
	}
	if math.Abs(b.Active-16.5) > 1e-9 {
		t.Fatalf("active energy = %g want 16.5", b.Active)
	}
	if math.Abs(b.Total()-46.7) > 1e-9 {
		t.Fatalf("total = %g want 46.7", b.Total())
	}
}

func TestEnergyIgnoresUnknownDevices(t *testing.T) {
	m := DefaultModel()
	u := Usage{Makespan: 1, Busy: map[string]float64{"fpga": 1}}
	b := m.Energy(u)
	if b.Active != 0 {
		t.Fatalf("unknown device contributed %g J", b.Active)
	}
}

func TestFasterRunSavesEnergyDespiteHigherPeak(t *testing.T) {
	// The paper's core energy observation: SHMT draws a higher peak but
	// finishes ~2x sooner, so total energy drops (§5.5).
	m := DefaultModel()
	baseline := m.Energy(Usage{Makespan: 10, Busy: map[string]float64{"gpu": 10}})
	shmt := m.Energy(Usage{Makespan: 5, Busy: map[string]float64{"gpu": 5, "tpu": 5}})
	if shmt.Total() >= baseline.Total() {
		t.Fatalf("SHMT energy %g should undercut baseline %g", shmt.Total(), baseline.Total())
	}
	saved := 1 - shmt.Total()/baseline.Total()
	if saved < 0.3 || saved > 0.7 {
		t.Fatalf("saving %.2f out of the plausible band around the paper's 51%%", saved)
	}
}

// TestEnergyIsOrderIndependent: the sum over devices must not depend on Go's
// map iteration order — two identical runs must report identical energy to
// the last bit.
func TestEnergyIsOrderIndependent(t *testing.T) {
	m := DefaultModel()
	u := Usage{Makespan: 0.0123, Busy: map[string]float64{"cpu": 0.003553, "gpu": 0.017101, "tpu": 0.015512}}
	want := math.Float64bits(m.Energy(u).Active)
	for i := 0; i < 1000; i++ {
		if got := math.Float64bits(m.Energy(u).Active); got != want {
			t.Fatalf("call %d: active energy bits %#x, first call %#x", i, got, want)
		}
	}
}
