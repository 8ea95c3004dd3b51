package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shmt/internal/telemetry"
)

func TestForCoversRangeOnce(t *testing.T) {
	for _, w := range []int{1, 2, 4, runtime.NumCPU()} {
		prev := SetWorkers(w)
		n := 10_001
		hits := make([]int32, n)
		For(n, 97, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		SetWorkers(prev)
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", w, i, h)
			}
		}
	}
}

func TestForChunkBoundariesIndependentOfWorkers(t *testing.T) {
	collect := func(w int) map[[2]int]bool {
		prev := SetWorkers(w)
		defer SetWorkers(prev)
		got := make(chan [2]int, 64)
		For(1000, 64, func(lo, hi int) { got <- [2]int{lo, hi} })
		close(got)
		set := map[[2]int]bool{}
		for c := range got {
			set[c] = true
		}
		return set
	}
	a, b := collect(1), collect(4)
	if len(a) != len(b) {
		t.Fatalf("chunk count differs: %d vs %d", len(a), len(b))
	}
	for c := range a {
		if !b[c] {
			t.Fatalf("chunk %v missing with 4 workers", c)
		}
	}
}

func TestForEmptyAndSingle(t *testing.T) {
	ran := false
	For(0, 8, func(lo, hi int) { ran = true })
	if ran {
		t.Fatal("For(0) must not invoke fn")
	}
	For(1, 8, func(lo, hi int) {
		if lo != 0 || hi != 1 {
			t.Fatalf("got [%d,%d)", lo, hi)
		}
		ran = true
	})
	if !ran {
		t.Fatal("For(1) must invoke fn once")
	}
}

func TestForPanicPropagates(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	For(1000, 10, func(lo, hi int) {
		if lo == 500 {
			panic("boom")
		}
	})
	t.Fatal("unreachable: panic must propagate")
}

func TestSetWorkersClampsAndRestores(t *testing.T) {
	prev := SetWorkers(0)
	if Workers() != 1 {
		t.Fatalf("SetWorkers(0) -> %d, want clamp to 1", Workers())
	}
	SetWorkers(prev)
	if Workers() != prev {
		t.Fatalf("restore failed: %d != %d", Workers(), prev)
	}
}

// TestPoolTaskCallingForDoesNotDeadlock reproduces the prefetch-path hang:
// standalone pool tasks (submit) that themselves call For. Pre-fix, every pool
// worker could end up parked in For's wait while that For's helpers sat
// queued behind the very tasks occupying the workers — a cycle nobody could
// break, deterministic on GOMAXPROCS=1. For now helps drain the queue while
// it waits, so this must complete no matter how tasks and helpers interleave.
func TestPoolTaskCallingForDoesNotDeadlock(t *testing.T) {
	prev := SetWorkers(8)
	defer SetWorkers(prev)
	var total atomic.Int64
	var wg sync.WaitGroup
	launched := 0
	for i := 0; i < 64; i++ {
		wg.Add(1)
		if !submit(func() {
			defer wg.Done()
			For(64, 1, func(lo, hi int) { total.Add(int64(hi - lo)) })
		}) {
			wg.Done()
			break
		}
		launched++
	}
	// The engine thread piles on concurrently, like Execute does.
	For(64, 1, func(lo, hi int) { total.Add(int64(hi - lo)) })
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("pool tasks calling For deadlocked")
	}
	if want := int64((launched + 1) * 64); total.Load() != want {
		t.Fatalf("total = %d, want %d", total.Load(), want)
	}
}

func TestNestedForDoesNotDeadlock(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	var total atomic.Int64
	For(8, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			For(100, 7, func(l, h int) { total.Add(int64(h - l)) })
		}
	})
	if total.Load() != 800 {
		t.Fatalf("nested total = %d, want 800", total.Load())
	}
}

// TestWorkerBusyCountsEachGoroutineOnce: a goroutine draining a For's chunks
// adds its interval once, not once per chunk. Only GOMAXPROCS pool workers
// and the caller can be inside For at once, so busy time over
// wall × (GOMAXPROCS + 1) is a share that cannot exceed 1 unless some
// goroutine was counted twice.
func TestWorkerBusyCountsEachGoroutineOnce(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	telemetry.Enable()
	defer telemetry.Disable()

	var sink atomic.Int64
	spin := func(lo, hi int) {
		x := int64(lo)
		for i := 0; i < 20_000*(hi-lo); i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		sink.Add(x)
	}
	busy0, chunks0 := telemetry.WorkerBusyNanos.Value(), telemetry.WorkerChunks.Value()
	start := time.Now()
	for i := 0; i < 16; i++ {
		For(64, 8, spin)
	}
	wall := time.Since(start)
	busy := telemetry.WorkerBusyNanos.Value() - busy0
	if busy == 0 {
		t.Fatal("no busy time recorded on the parallel path")
	}
	if share := float64(busy) / (float64(wall.Nanoseconds()) * float64(runtime.GOMAXPROCS(0)+1)); share > 1 {
		t.Fatalf("worker busy share = %.2f > 1: %v busy in %v wall on %d procs — a goroutine counted twice",
			share, time.Duration(busy), wall, runtime.GOMAXPROCS(0))
	}
	// Chunks are work done, not time: each counts once.
	if got, want := telemetry.WorkerChunks.Value()-chunks0, int64(16*8); got != want {
		t.Fatalf("chunks = %d, want %d", got, want)
	}
}

// TestParallelForAllocatesNothing: once its job has been made, a parallel For
// of a function value allocates nothing, however many helpers it fans out to.
func TestParallelForAllocatesNothing(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	var sink atomic.Int64
	fn := func(lo, hi int) { sink.Add(int64(hi - lo)) }
	if n := testing.AllocsPerRun(100, func() { For(4096, 64, fn) }); n != 0 {
		t.Fatalf("For allocates %v times per call", n)
	}
	if want := int64(101 * 4096); sink.Load() != want {
		t.Fatalf("covered %d elements, want %d", sink.Load(), want)
	}
}

// TestPooledJobsUnderContention: jobs recycled across many goroutines calling
// For at once, nested too, still run every index of every call exactly once; a chunk's panic reaches its own
// caller and no other; and the job it panicked in is never handed to another
// call (no job on the free list carries a panic).
func TestPooledJobsUnderContention(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	once := func(hits []atomic.Int32) error {
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				return fmt.Errorf("index %d of %d ran %d times", i, len(hits), h)
			}
		}
		return nil
	}

	const goroutines, calls = 12, 40
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < calls; c++ {
				n := 1 + (g*131+c*17)%900
				hits := make([]atomic.Int32, n)
				var nestedErr atomic.Value
				For(n, 1+c%13, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						hits[i].Add(1)
						if i%101 == 0 { // a For inside a pool task
							inner := make([]atomic.Int32, 64)
							For(64, 5, func(lo, hi int) {
								for i := lo; i < hi; i++ {
									inner[i].Add(1)
								}
							})
							if err := once(inner); err != nil {
								nestedErr.Store(err)
							}
						}
					}
				})
				if err := once(hits); err != nil {
					errs <- fmt.Errorf("goroutine %d call %d: %w", g, c, err)
					return
				}
				if err, _ := nestedErr.Load().(error); err != nil {
					errs <- fmt.Errorf("goroutine %d call %d, nested: %w", g, c, err)
					return
				}
				if c%5 != 0 {
					continue
				}
				token := [2]int{g, c}
				got := func() (r any) {
					defer func() { r = recover() }()
					For(n+64, 4, func(lo, hi int) {
						if lo <= n && n < hi {
							panic(token)
						}
					})
					return nil
				}()
				if got != token {
					errs <- fmt.Errorf("goroutine %d call %d: recovered %v, want its own panic %v", g, c, got, token)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	var held []*forJob
	for j := jobs.Get(); j != nil; j = jobs.Get() {
		if j.panicked.Load() || j.fn != nil || j.pending.Load() != 0 {
			t.Errorf("the free list holds a job that is not clean: panicked %v, fn %v, pending %d",
				j.panicked.Load(), j.fn != nil, j.pending.Load())
		}
		held = append(held, j)
	}
	if len(held) == 0 {
		t.Error("no job came back to the free list")
	}
	for _, j := range held {
		jobs.Put(j)
	}
}
