package shmt_test

import (
	"runtime"
	"slices"
	"testing"
	"time"

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
// of the six, its plan cached, costs at most 15 allocations at 16, 64 and 256
// partitions, and its three counts lie within 2 of each other, so one
// allocation per HLOP, or per device queue, coming back fails it. (The
// counts were 456–1,496 when every parallel call, kernel stage and HLOP
// staging allocated; 58–64 at 64 partitions, and 52–70 across the three,
// when the round rebuilt its queues, maps and closures on the heap.)
func TestWarmComputeAllocs(t *testing.T) {
	const most, spread = 15, 2
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

// TestWarmComputeAllocsAfterCollections: what a warm lib_compute request
// allocates does not depend on when the collector last ran. Each of the six,
// at the benchmark's session settings, is held to TestWarmComputeAllocs'
// bound with two collections forced before it — over two a sync.Pool loses
// everything it held, and its tiles were allocated again.
func TestWarmComputeAllocsAfterCollections(t *testing.T) {
	const most = 15
	s := newSession(t, shmt.Config{})
	for _, r := range computeRequests() {
		batch := []shmt.BatchRequest{r}
		run := func() {
			if _, err := s.ExecuteBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 20; i++ {
			run()
		}
		for i := 0; i < 3; i++ {
			if n := mallocsAfterCollections(run); n > most {
				t.Errorf("%s: a warm request after two collections allocates %d times, want at most %d", r.Op, n, most)
			}
		}
	}
}

// mallocsAfterCollections runs two collections, waits until the runtime's
// own clean-up after them is done (the unique package and the arena's trim
// allocate after a collection) — until the process's malloc count stops
// moving for 5 ms — and returns how many objects f allocates.
func mallocsAfterCollections(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for still, i := 0, 0; still < 5 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
		runtime.ReadMemStats(&after)
		if still++; after.Mallocs != before.Mallocs {
			still = 0
		}
		before = after
	}
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
