package shmt_test

import (
	"slices"
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

// TestWarmComputeAllocs: a warm lib_compute request allocates only what it
// hands back — the VOP, its HLOP slab, the output, the report and the batch
// result with their maps — and nothing per HLOP, per kernel stage or for the
// round's own bookkeeping, which the engine keeps from round to round. Each
// of the six, its plan cached, costs at most 18 allocations at 16, 64 and 256
// partitions, and its three counts lie within 2 of each other, so one
// allocation per HLOP, or per device queue, coming back fails it. (The
// counts were 456–1,496 when every parallel call, kernel stage and HLOP
// staging allocated; 58–64 at 64 partitions, and 52–70 across the three,
// when the round rebuilt its queues, maps and closures on the heap.)
func TestWarmComputeAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	const most, spread = 18, 2
	partitions := []int{16, 64, 256}
	var ops []shmt.Op
	counts := make(map[shmt.Op][]float64)
	for _, parts := range partitions {
		s := newSession(t, shmt.Config{TargetPartitions: parts})
		for _, r := range computeRequests() {
			batch := []shmt.BatchRequest{r}
			run := func() {
				res, err := s.ExecuteBatch(batch)
				if err != nil {
					t.Fatal(err)
				}
				// The partitioner's minimum tile holds some shapes below 256.
				if n := res.Reports[0].HLOPs; n != parts && (parts != 256 || n < 64) {
					t.Fatalf("%s ran as %d HLOPs at %d partitions", r.Op, n, parts)
				}
			}
			for i := 0; i < 3; i++ {
				run()
			}
			allocs := testing.AllocsPerRun(20, run)
			if counts[r.Op] == nil {
				ops = append(ops, r.Op)
			}
			counts[r.Op] = append(counts[r.Op], allocs)
			if allocs > most {
				t.Errorf("%s, %d partitions: a warm request allocates %.0f times, want at most %d", r.Op, parts, allocs, most)
			}
		}
		if st := s.PlanCacheStats(); st.Hits == 0 {
			t.Fatalf("%d partitions: no plan replayed: %+v", parts, st)
		}
	}
	for _, op := range ops {
		c := counts[op]
		t.Logf("%s: %v allocations per warm request at %v partitions", op, c, partitions)
		if slices.Max(c)-slices.Min(c) > spread {
			t.Errorf("%s: %v allocations per warm request at %v partitions, want them within %d", op, c, partitions, spread)
		}
	}
}
