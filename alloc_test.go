package shmt_test

import (
	"testing"

	"shmt"
	"shmt/internal/workload"
)

// computeRequests are the six requests of the repo benchmark's lib_compute
// workload, at its shapes, with the value ranges its applications use.
func computeRequests() []shmt.BatchRequest {
	mixed := func(rows, cols int, p workload.Profile, seed int64) *shmt.Matrix {
		p.TileSize = rows / 8
		return workload.Mixed(rows, cols, p, seed)
	}
	atLeast := func(m *shmt.Matrix, lo float64) *shmt.Matrix {
		for i, v := range m.Data {
			m.Data[i] = max(v, lo)
		}
		return m
	}
	return []shmt.BatchRequest{
		{Op: shmt.OpGEMM, Inputs: []*shmt.Matrix{mixed(256, 256, workload.Profile{}, 1), mixed(256, 256, workload.Profile{}, 2)}},
		{Op: shmt.OpSobel, Inputs: []*shmt.Matrix{workload.Image(640, 640, 3)}},
		{Op: shmt.OpSRAD, Inputs: []*shmt.Matrix{atLeast(workload.Image(512, 512, 4), 1)},
			Attrs: map[string]float64{"lambda": 0.5, "q0sqr": 0.05}},
		{Op: shmt.OpFFT, Inputs: []*shmt.Matrix{mixed(768, 512, workload.Profile{}, 5)}},
		{Op: shmt.OpDCT8x8, Inputs: []*shmt.Matrix{mixed(640, 640, workload.Profile{}, 6)}},
		{Op: shmt.OpParabolicPDE, Inputs: []*shmt.Matrix{
			atLeast(mixed(512, 512, workload.Profile{Lo: 80, Hi: 120, CriticalScale: 6}, 7), 1),
			workload.Uniform(512, 512, 100, 150, 8)},
			Attrs: map[string]float64{"r": 0.02, "sigma": 0.30, "t": 1}},
	}
}

// TestWarmComputeAllocs: a warm lib_compute request allocates per round, not
// per HLOP. Each of the six runs as 64 HLOPs with its plan cached, and costs
// at most half of what it did when every parallel call allocated its job,
// every kernel stage its closure and every HLOP its staging headers (the
// parent column), and fewer than one and a half allocations per HLOP, so a
// single allocation per HLOP coming back fails it.
func TestWarmComputeAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	parent := map[shmt.Op]float64{
		shmt.OpGEMM: 465, shmt.OpSobel: 744, shmt.OpSRAD: 1496,
		shmt.OpFFT: 1372, shmt.OpDCT8x8: 665, shmt.OpParabolicPDE: 456,
	}
	const hlops = 64
	s := newSession(t, shmt.Config{})
	for _, r := range computeRequests() {
		batch := []shmt.BatchRequest{r}
		run := func() {
			res, err := s.ExecuteBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			if n := res.Reports[0].HLOPs; n != hlops {
				t.Fatalf("%s ran as %d HLOPs, want %d", r.Op, n, hlops)
			}
		}
		for i := 0; i < 3; i++ {
			run()
		}
		allocs := testing.AllocsPerRun(20, run)
		t.Logf("%s: %.0f allocations per warm request (parent %.0f)", r.Op, allocs, parent[r.Op])
		if want := min(parent[r.Op]/2, 1.5*hlops); allocs > want {
			t.Errorf("%s: a warm request allocates %.0f times, want at most %.0f", r.Op, allocs, want)
		}
	}
	if st := s.PlanCacheStats(); st.Hits == 0 {
		t.Fatalf("no plan replayed: %+v", st)
	}
}
