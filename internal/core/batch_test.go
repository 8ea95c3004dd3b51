package core

import (
	"math"
	"strings"
	"sync"
	"testing"

	"shmt/internal/device"
	"shmt/internal/device/cpu"
	"shmt/internal/device/gpu"
	"shmt/internal/device/tpu"
	"shmt/internal/hlop"
	"shmt/internal/telemetry"
	"shmt/internal/tensor"
	"shmt/internal/vop"
	"shmt/internal/workload"
)

func batchVOPs(t *testing.T) []*vop.VOP {
	t.Helper()
	a := workload.Mixed(64, 64, workload.Profile{TileSize: 16}, 80)
	b := workload.Uniform(64, 64, 0.1, 1, 81)
	v1, err := vop.New(vop.OpSobel, a)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := vop.New(vop.OpSqrt, b)
	if err != nil {
		t.Fatal(err)
	}
	v3, err := vop.New(vop.OpReduceSum, b)
	if err != nil {
		t.Fatal(err)
	}
	return []*vop.VOP{v1, v2, v3}
}

func TestRunBatchBasics(t *testing.T) {
	e := &Engine{Reg: stdRegistry(t), Policy: row("work-stealing").Policy,
		Spec: hlop.Spec{TargetPartitions: 4, MinTile: 8, MinVectorElems: 64}, DoubleBuffer: true}
	res, err := e.RunBatch(batchVOPs(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 3 {
		t.Fatalf("reports = %d", len(res.Reports))
	}
	if res.Makespan <= 0 || res.Energy.Total() <= 0 {
		t.Fatal("batch accounting degenerate")
	}
	for i, rep := range res.Reports {
		if rep.Output == nil || rep.HLOPs == 0 {
			t.Fatalf("report %d empty", i)
		}
		if rep.Makespan > res.Makespan+1e-12 {
			t.Fatalf("report %d outlives the batch", i)
		}
	}
}

func TestRunBatchExactness(t *testing.T) {
	reg, _ := device.NewRegistry(cpu.New(1))
	e := &Engine{Reg: reg, Policy: row("cpu-only").Policy,
		Spec: hlop.Spec{TargetPartitions: 4, MinTile: 8, MinVectorElems: 64}}
	vops := batchVOPs(t)
	res, err := e.RunBatch(vops)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vops {
		solo, err := e.Run(v)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Reports[i].Output.Equal(solo.Output) {
			t.Fatalf("vop %d batch output differs from solo", i)
		}
	}
}

// TestRunBatchSplitOwnership forces TPU-memory splits inside a batch and
// checks every re-created HLOP still aggregates into the right VOP.
func TestRunBatchSplitOwnership(t *testing.T) {
	tiny := tpu.New(tpu.Config{MemoryBytes: 6 << 10})
	reg, _ := device.NewRegistry(cpu.New(1), gpu.New(gpu.Config{}), tiny)
	e := &Engine{Reg: reg, Policy: row("tpu-only").Policy,
		Spec: hlop.Spec{TargetPartitions: 2, MinTile: 8}}
	a := workload.Uniform(96, 96, 0, 1, 82)
	b := workload.Uniform(96, 96, 0, 1, 83)
	v1, _ := vop.New(vop.OpSobel, a)
	v2, _ := vop.New(vop.OpMeanFilter, b)
	res, err := e.RunBatch([]*vop.VOP{v1, v2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reports[0].HLOPs <= 2 || res.Reports[1].HLOPs <= 2 {
		t.Fatalf("expected splits: %d/%d HLOPs", res.Reports[0].HLOPs, res.Reports[1].HLOPs)
	}
	for i, rep := range res.Reports {
		if rep.Output.Rows != 96 || rep.Output.Cols != 96 {
			t.Fatalf("vop %d output shape wrong after splits", i)
		}
	}
}

// TestRunBatchConcurrent: several goroutines may run batches on one Engine at
// once — its breakers and metric handles are shared, each round's queues,
// clocks and accounting are its own — and each gets the result it would have
// got alone. Run under -race.
func TestRunBatchConcurrent(t *testing.T) {
	e := &Engine{Reg: stdRegistry(t), Policy: row("work-stealing").Policy,
		Spec: hlop.Spec{TargetPartitions: 4, MinTile: 8, MinVectorElems: 64}}
	want, err := e.RunBatch(batchVOPs(t))
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*BatchResult, 4)
	errs := make([]error, len(results))
	batches := make([][]*vop.VOP, len(results))
	for i := range batches {
		batches[i] = batchVOPs(t)
	}
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = e.RunBatch(batches[i])
		}()
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if len(res.Reports) != 3 || res.Makespan != want.Makespan {
			t.Fatalf("batch %d: %d reports, makespan %g; alone: 3, %g", i, len(res.Reports), res.Makespan, want.Makespan)
		}
		for j, rep := range res.Reports {
			if !bitEqual(rep.Output, want.Reports[j].Output) {
				t.Fatalf("batch %d: output %d differs from the batch run alone", i, j)
			}
		}
	}
}

// TestRunBatchAggregationTimeline pins the one aggregation timeline: no VOP
// outlives its batch, and a VOP whose every result aliased its output through
// a view — nothing for the host to copy — is complete the instant its last
// HLOP finishes, however long the host spends copying the other VOPs' data.
func TestRunBatchAggregationTimeline(t *testing.T) {
	// CPU + GPU share host memory, so halo-free partitions write in place.
	reg, _ := device.NewRegistry(cpu.New(1), gpu.New(gpu.Config{}))
	rec := telemetry.NewRecorder()
	e := &Engine{Reg: reg, Policy: row("work-stealing").Policy, DoubleBuffer: true, Telemetry: rec,
		Spec: hlop.Spec{TargetPartitions: 4, MinTile: 8, MinVectorElems: 64}}
	vops := batchVOPs(t) // Sobel (halo: copied), sqrt (aliased), reduce-sum (partials copied)
	for i, v := range vops {
		v.TraceID = string(rune('a' + i))
	}
	res, err := e.RunBatch(vops)
	if err != nil {
		t.Fatal(err)
	}
	// Each HLOP's finish is the end of its outbound transfer span, or of its
	// compute span when nothing moved.
	lastFinish := map[string]float64{}
	for _, s := range rec.Spans() {
		if s.Clock == telemetry.ClockVirtual {
			lastFinish[s.TraceID] = max(lastFinish[s.TraceID], s.End)
		}
	}
	for i, rep := range res.Reports {
		if rep.Makespan > res.Makespan {
			t.Fatalf("vop %d makespan %g outlives the batch (%g)", i, rep.Makespan, res.Makespan)
		}
		if rep.Makespan < lastFinish[vops[i].TraceID] {
			t.Fatalf("vop %d makespan %g precedes its last HLOP finish %g", i, rep.Makespan, lastFinish[vops[i].TraceID])
		}
	}
	if got, want := res.Reports[1].Makespan, lastFinish["b"]; got != want {
		t.Fatalf("all-aliased vop makespan = %g, want its last HLOP finish %g", got, want)
	}
	if res.Reports[0].Makespan == lastFinish["a"] {
		t.Fatal("a VOP with copied results must also wait for its last copy")
	}
}

func TestRunBatchValidation(t *testing.T) {
	e := &Engine{Reg: stdRegistry(t)}
	if _, err := e.RunBatch(nil); err == nil {
		t.Fatal("empty batch should fail")
	}
	if _, err := (&Engine{}).RunBatch(batchVOPs(t)); err == nil {
		t.Fatal("missing registry should fail")
	}
}

func TestInterleaveRoundRobin(t *testing.T) {
	a := []*hlop.HLOP{{ID: 0}, {ID: 1}}
	b := []*hlop.HLOP{{ID: 10}, {ID: 11}, {ID: 12}}
	got := interleave(nil, [][]*hlop.HLOP{a, b})
	want := []int{0, 10, 1, 11, 12}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i, h := range got {
		if h.ID != want[i] {
			t.Fatalf("interleave[%d] = %d want %d", i, h.ID, want[i])
		}
	}
}

func TestEngineEvenDistributionBoundedBySlowerDevice(t *testing.T) {
	// Even distribution's makespan is bounded below by half the work on the
	// slower device (the paper's §5.2 observation). Using an op where the
	// TPU is much slower (MF, ratio 0.31), even must trail work stealing.
	m := workload.Image(128, 128, 84)
	v, _ := vop.New(vop.OpMeanFilter, m)
	run := func(key string) float64 {
		r := row(key)
		e := &Engine{Reg: stdRegistry(t), Policy: r.Policy,
			Spec: hlop.Spec{TargetPartitions: 16, MinTile: 8}, DoubleBuffer: r.DoubleBuffer}
		rep, err := e.Run(v)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Makespan
	}
	even := run("even-distribution")
	ws := run("work-stealing")
	if ws >= even {
		t.Fatalf("work stealing (%g) should beat even distribution (%g) on a TPU-hostile kernel", ws, even)
	}
}

// TestRunBatchIntoDestination: a VOP with a Dst gets its output there — the
// same bits a run that allocates its output computes, whatever the
// destination held (a halo opcode, whose HLOPs are scattered back, and a
// view-bound one) — a reduction ignores its Dst, and a Dst of the wrong shape
// is refused before anything runs.
func TestRunBatchIntoDestination(t *testing.T) {
	e := &Engine{Reg: stdRegistry(t), Policy: row("work-stealing").Policy,
		Spec: hlop.Spec{TargetPartitions: 4, MinTile: 8, MinVectorElems: 64}, DoubleBuffer: true}
	want, err := e.RunBatch(batchVOPs(t))
	if err != nil {
		t.Fatal(err)
	}
	vops := batchVOPs(t)
	dsts := make([]*tensor.Matrix, len(vops))
	for i, v := range vops {
		rows, cols := v.OutputShape()
		if v.Op.IsReduction() {
			rows, cols = 3, 3 // not its output's shape, and never looked at
		}
		dsts[i] = tensor.NewMatrix(rows, cols)
		for k := range dsts[i].Data {
			dsts[i].Data[k] = math.NaN()
		}
		v.Dst = dsts[i]
	}
	got, err := e.RunBatch(vops)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vops {
		out := got.Reports[i].Output
		if (out == dsts[i]) == v.Op.IsReduction() {
			t.Fatalf("%s: output is the destination: %v", v.Op, out == dsts[i])
		}
		for k, x := range want.Reports[i].Output.Data {
			if math.Float64bits(out.Data[k]) != math.Float64bits(x) {
				t.Fatalf("%s: element %d is %v with a destination, %v without", v.Op, k, out.Data[k], x)
			}
		}
	}

	bad := batchVOPs(t)[:2]
	bad[1].Dst = tensor.NewMatrix(64, 63)
	if _, err := e.RunBatch(bad); err == nil || !strings.Contains(err.Error(), "destination") {
		t.Fatalf("a 64x63 destination for a 64x64 output: %v", err)
	}
}
