package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"shmt/internal/device"
	"shmt/internal/device/cpu"
	"shmt/internal/device/gpu"
	"shmt/internal/device/tpu"
	"shmt/internal/hlop"
	"shmt/internal/telemetry"
	"shmt/internal/vop"
	"shmt/internal/workload"
)

// TestEngineTelemetrySpansAndCounters runs the engine with a
// recorder attached and checks the full observability contract: virtual
// device spans, wall-clock host phase spans, and counter deltas consistent
// with the run report.
func TestEngineTelemetrySpansAndCounters(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	base := telemetry.Default.Snapshot()

	rec := telemetry.NewRecorder()
	e := &Engine{Reg: stdRegistry(t), Policy: row("work-stealing").Policy,
		Spec: hlop.Spec{TargetPartitions: 8, MinTile: 8}, DoubleBuffer: true,
		Telemetry: rec}
	rep, err := e.Run(sobelVOP(t, 128, 21))
	if err != nil {
		t.Fatal(err)
	}

	var virtual, wall, xfer int
	phases := map[string]bool{}
	hlops := map[int]int{}
	for _, s := range rec.Spans() {
		switch s.Clock {
		case telemetry.ClockVirtual:
			if s.End <= s.Start {
				t.Fatalf("empty virtual span: %+v", s)
			}
			// Transfer-stage spans live on the "<device> xfer" sub-lanes and
			// don't count against the one-compute-span-per-HLOP contract.
			if strings.HasSuffix(s.Track, " xfer") {
				xfer++
				continue
			}
			virtual++
			hlops[s.ID]++
		case telemetry.ClockWall:
			wall++
			if s.Track != "host" {
				t.Fatalf("wall span off the host lane: %+v", s)
			}
			phases[s.Name] = true
		}
	}
	if virtual != rep.HLOPs {
		t.Fatalf("virtual spans = %d, report HLOPs = %d", virtual, rep.HLOPs)
	}
	if xfer == 0 {
		t.Fatal("no transfer-stage spans on the xfer sub-lanes")
	}
	for id, n := range hlops {
		if n != 1 {
			t.Fatalf("HLOP %d has %d spans", id, n)
		}
	}
	for _, p := range []string{telemetry.PhasePartition, telemetry.PhaseSchedule,
		telemetry.PhaseExecute, telemetry.PhaseAggregate} {
		if !phases[p] {
			t.Fatalf("missing host phase span %q (have %v)", p, phases)
		}
	}
	if wall != 4 {
		t.Fatalf("wall spans = %d, want the 4 lifecycle phases", wall)
	}

	d := telemetry.Default.Snapshot().Delta(base)
	if d[`shmt_runs_total{policy="work-stealing"}`] != 1 {
		t.Fatalf("runs counter: %v", d)
	}
	var executed, assigned float64
	for _, dev := range []string{"cpu", "gpu", "tpu"} {
		executed += d[`shmt_hlops_executed_total{device="`+dev+`"}`]
		assigned += d[`shmt_hlops_assigned_total{device="`+dev+`"}`]
	}
	if int(executed) != rep.HLOPs {
		t.Fatalf("executed counters = %g, report HLOPs = %d", executed, rep.HLOPs)
	}
	if assigned == 0 {
		t.Fatal("no initial assignments counted")
	}
	if d["shmt_vop_phase_seconds_count{phase=\"execute\"}"] != 1 {
		t.Fatalf("phase histogram not observed: %v", d)
	}

	// Steal bookkeeping is consistent: every stolen span names a victim lane
	// and is counted in shmt_steals_total.
	var stolenSpans float64
	for _, s := range rec.Spans() {
		if s.StealFrom != "" {
			stolenSpans++
			if s.StealFrom == s.Track {
				t.Fatalf("span stolen from itself: %+v", s)
			}
		}
	}
	var steals float64
	for _, dev := range []string{"cpu", "gpu", "tpu"} {
		steals += d[`shmt_steals_total{device="`+dev+`"}`]
	}
	if steals != stolenSpans {
		t.Fatalf("steal counters = %g, stolen spans = %g", steals, stolenSpans)
	}
}

// TestEngineTelemetryPerfettoEndToEnd is the acceptance check: a real run's
// recorder must render valid Chrome trace-event JSON with device lanes and
// host lanes.
func TestEngineTelemetryPerfettoEndToEnd(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	rec := telemetry.NewRecorder()
	e := &Engine{Reg: stdRegistry(t), Policy: row("work-stealing").Policy,
		Spec: hlop.Spec{TargetPartitions: 8, MinTile: 8}, DoubleBuffer: true,
		Telemetry: rec}
	if _, err := e.Run(sobelVOP(t, 128, 23)); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := rec.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var tf telemetry.TraceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid trace-event JSON: %v", err)
	}
	lanes := map[int]map[string]bool{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			if lanes[ev.PID] == nil {
				lanes[ev.PID] = map[string]bool{}
			}
			lanes[ev.PID][ev.Args["name"].(string)] = true
		}
	}
	if len(lanes[1]) == 0 {
		t.Fatal("no virtual device lanes in the trace")
	}
	if !lanes[2]["host"] {
		t.Fatalf("no wall-clock host lane in the trace: %v", lanes)
	}
}

// TestEngineNoTelemetryRecordsNothing checks the disabled path end to end:
// with the gate off and no recorder, a run moves no counters.
func TestEngineNoTelemetryRecordsNothing(t *testing.T) {
	telemetry.Disable()
	base := telemetry.Default.Snapshot()
	e := &Engine{Reg: stdRegistry(t), Policy: row("work-stealing").Policy,
		Spec: hlop.Spec{TargetPartitions: 4, MinTile: 8}}
	if _, err := e.Run(sobelVOP(t, 64, 24)); err != nil {
		t.Fatal(err)
	}
	if d := telemetry.Default.Snapshot().Delta(base); len(d) != 0 {
		t.Fatalf("disabled run moved counters: %v", d)
	}
}

// TestBatchTelemetry checks RunBatch wires the same bundle: one run counter,
// per-VOP assignments, spans for every HLOP in the pool.
func TestBatchTelemetry(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	base := telemetry.Default.Snapshot()

	rec := telemetry.NewRecorder()
	e := &Engine{Reg: stdRegistry(t), Policy: row("work-stealing").Policy,
		Spec: hlop.Spec{TargetPartitions: 4, MinTile: 8}, DoubleBuffer: true,
		Telemetry: rec}
	batch, err := e.RunBatch([]*vop.VOP{sobelVOP(t, 64, 25), sobelVOP(t, 64, 26)})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range batch.Reports {
		total += r.HLOPs
	}
	if virtual := len(telemetry.HLOPSpans(rec.Spans())); virtual != total {
		t.Fatalf("virtual spans = %d, batch HLOPs = %d", virtual, total)
	}
	d := telemetry.Default.Snapshot().Delta(base)
	if d[`shmt_runs_total{policy="work-stealing"}`] != 1 {
		t.Fatalf("batch should count as one run: %v", d)
	}
}

// BenchmarkTelemetryOverhead measures a full engine run with instrumentation
// disabled vs enabled (gate on, recorder attached) — the numbers behind
// DESIGN.md's overhead claim, whose allocation half
// TestDisabledPathAllocatesNothing and TestEnabledHotPathAllocatesNothing
// (internal/telemetry) hold. The engine and
// recorder live across iterations, mirroring how a serving Session reuses
// one engine for every request: the enabled path therefore exercises the
// cached counter handles (telHandles) and the recycled span slab
// (Recorder.Reset) rather than paying family lookups and slab growth on
// every run.
func BenchmarkTelemetryOverhead(b *testing.B) {
	run := func(b *testing.B, enabled bool) {
		reg, err := device.NewRegistry(cpu.New(1), gpu.New(gpu.Config{}), tpu.New(tpu.Config{}))
		if err != nil {
			b.Fatal(err)
		}
		m := workload.Mixed(128, 128, workload.Profile{TileSize: 32}, 20)
		v, err := vop.New(vop.OpSobel, m)
		if err != nil {
			b.Fatal(err)
		}
		e := &Engine{Reg: reg, Policy: row("work-stealing").Policy,
			Spec: hlop.Spec{TargetPartitions: 8, MinTile: 8}, DoubleBuffer: true}
		if enabled {
			telemetry.Enable()
			defer telemetry.Disable()
			e.Telemetry = telemetry.NewRecorder()
		} else {
			telemetry.Disable()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if enabled {
				e.Telemetry.Reset()
			}
			if _, err := e.Run(v); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, false) })
	b.Run("enabled", func(b *testing.B) { run(b, true) })
}
