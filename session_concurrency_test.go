package shmt_test

import (
	"errors"
	"math"
	"sync"
	"testing"

	"shmt"
	"shmt/internal/telemetry"
	"shmt/internal/workload"
)

func mustSession(t *testing.T, cfg shmt.Config) *shmt.Session {
	t.Helper()
	s, err := shmt.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func addInputs(base float64) []*shmt.Matrix {
	a := shmt.NewMatrix(4, 4)
	b := shmt.NewMatrix(4, 4)
	for i := range a.Data {
		a.Data[i] = base + float64(i)
		b.Data[i] = 100
	}
	return []*shmt.Matrix{a, b}
}

func checkAdd(t *testing.T, out *shmt.Matrix, base float64) {
	t.Helper()
	if out == nil {
		t.Fatal("nil output")
	}
	for i := range out.Data {
		want := base + float64(i) + 100
		if math.Abs(out.Data[i]-want)/want > 0.02 {
			t.Fatalf("out[%d] = %v, want ≈%v (base %v) — result mixed across requests?",
				i, out.Data[i], want, base)
		}
	}
}

// TestPipelineChaosAppliedOnce is the fault-plan-inheritance regression: a
// conventional pipeline builds one sub-session per stage, and each used to
// copy cfg.Chaos — restarting every fault schedule per stage, so a
// FailFirstOps outage re-fired on stage after stage. Sub-sessions must run
// chaos-free; the plan belongs to the parent session's own engine.
func TestPipelineChaosAppliedOnce(t *testing.T) {
	s := mustSession(t, shmt.Config{
		Telemetry: shmt.Telemetry{Enabled: true},
		Chaos:     map[string]shmt.ChaosConfig{"gpu": {FailFirstOps: 3}},
	})
	t.Cleanup(telemetry.Disable) // recording is process-wide; TestWarmComputeAllocs counts without it
	img := workload.Mixed(32, 32, workload.Profile{TileSize: 8}, 5)
	stages := []shmt.Stage{
		{Name: "edge", Op: shmt.OpSobel},
		{Name: "blur", Op: shmt.OpMeanFilter},
		{Name: "lap", Op: shmt.OpLaplacian},
	}

	base := telemetry.Default.Snapshot()
	if _, err := s.ExecutePipeline(img, stages, shmt.PipelineConventional); err != nil {
		t.Fatal(err)
	}
	if d := telemetry.Default.Snapshot().Delta(base); d[`shmt_chaos_injected_total{mode="transient"}`] != 0 {
		t.Fatalf("conventional pipeline stages saw injected faults: %v — sub-sessions inherited cfg.Chaos", d)
	}

	// The plan is still live on the parent: a direct SHMT-mode run hits it.
	base = telemetry.Default.Snapshot()
	if _, err := s.Execute(shmt.OpSobel, []*shmt.Matrix{img}, nil); err != nil {
		t.Fatal(err)
	}
	if d := telemetry.Default.Snapshot().Delta(base); d[`shmt_chaos_injected_total{mode="transient"}`] == 0 {
		t.Fatalf("parent session lost its fault plan: %v", d)
	}
}

// TestConcurrentExecuteStress hammers one session from many goroutines with a
// mix of Execute and ExecuteBatch and checks every result is the caller's own
// (run under -race in CI).
func TestConcurrentExecuteStress(t *testing.T) {
	s := mustSession(t, shmt.Config{TargetPartitions: 8})
	const goroutines = 8
	const iters = 4

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				base := float64(g*100 + i)
				if i%2 == 0 {
					rep, err := s.Execute(shmt.OpAdd, addInputs(base), nil)
					if err != nil {
						t.Errorf("goroutine %d: Execute: %v", g, err)
						return
					}
					checkAdd(t, rep.Output, base)
				} else {
					res, err := s.ExecuteBatch([]shmt.BatchRequest{
						{Op: shmt.OpAdd, Inputs: addInputs(base)},
						{Op: shmt.OpAdd, Inputs: addInputs(base + 50)},
					})
					if err != nil {
						t.Errorf("goroutine %d: ExecuteBatch: %v", g, err)
						return
					}
					checkAdd(t, res.Reports[0].Output, base)
					checkAdd(t, res.Reports[1].Output, base+50)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCloseSemantics: Close is idempotent, and a closed session refuses every
// execution entry point with ErrSessionClosed.
func TestCloseSemantics(t *testing.T) {
	s, err := shmt.NewSession(shmt.Config{TargetPartitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	if _, err := s.Execute(shmt.OpAdd, addInputs(0), nil); !errors.Is(err, shmt.ErrSessionClosed) {
		t.Fatalf("Execute after Close: %v, want ErrSessionClosed", err)
	}
	if _, err := s.ExecuteBatch([]shmt.BatchRequest{{Op: shmt.OpAdd, Inputs: addInputs(0)}}); !errors.Is(err, shmt.ErrSessionClosed) {
		t.Fatalf("ExecuteBatch after Close: %v, want ErrSessionClosed", err)
	}
	img := workload.Mixed(16, 16, workload.Profile{TileSize: 8}, 1)
	if _, err := s.ExecutePipeline(img, []shmt.Stage{{Name: "e", Op: shmt.OpSobel}}, shmt.PipelineSHMT); !errors.Is(err, shmt.ErrSessionClosed) {
		t.Fatalf("ExecutePipeline after Close: %v, want ErrSessionClosed", err)
	}
}

// TestCloseDrainsOrRefuses: Close racing a running Execute has exactly two
// legal outcomes — the run completes first (Close waited) or the run lost the
// lock race and was refused with ErrSessionClosed. Never a torn run.
func TestCloseDrainsOrRefuses(t *testing.T) {
	for round := 0; round < 8; round++ {
		s, err := shmt.NewSession(shmt.Config{TargetPartitions: 8})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			rep, err := s.Execute(shmt.OpAdd, addInputs(7), nil)
			if err == nil {
				checkAdd(t, rep.Output, 7)
			}
			done <- err
		}()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil && !errors.Is(err, shmt.ErrSessionClosed) {
			t.Fatalf("round %d: Execute racing Close: %v", round, err)
		}
	}
}
