package shmt_test

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"shmt"
	"shmt/internal/telemetry"
	"shmt/internal/workload"
)

// TestSessionTelemetryEndToEnd covers the telemetry path through the public
// API: an enabled session produces a non-nil report, a valid Perfetto trace,
// and moves the counters the daemons expose on /metrics.
func TestSessionTelemetryEndToEnd(t *testing.T) {
	s, err := shmt.NewSession(shmt.Config{Telemetry: shmt.Telemetry{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer telemetry.Disable() // recording is process-wide; TestWarmComputeAllocs counts without it

	img := workload.Mixed(64, 64, workload.Profile{TileSize: 16}, 7)
	if _, err := s.Execute(shmt.OpSobel, []*shmt.Matrix{img}, nil); err != nil {
		t.Fatal(err)
	}

	rep := s.TelemetryReport()
	if rep == nil {
		t.Fatal("TelemetryReport nil on an enabled session")
	}
	if rep.Spans == 0 || len(rep.Lanes) == 0 {
		t.Fatalf("report empty: %+v", rep)
	}
	var sawVirtual, sawWall bool
	for _, l := range rep.Lanes {
		switch l.Clock {
		case "virtual":
			sawVirtual = true
		case "wall":
			sawWall = true
		}
	}
	if !sawVirtual || !sawWall {
		t.Fatalf("report lacks both clock domains: %+v", rep.Lanes)
	}
	var moved bool
	for k := range rep.Counters {
		if strings.HasPrefix(k, "shmt_hlops_executed_total") {
			moved = true
		}
	}
	if !moved {
		t.Fatalf("no execution counters in report: %v", rep.Counters)
	}

	// Perfetto trace round-trips through JSON.
	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("WriteTrace output is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	// The exposition every daemon serves on /metrics carries the schema.
	buf.Reset()
	if err := telemetry.Default.WriteExposition(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"shmt_runs_total", "shmt_breaker_state", "shmt_steal_attempts_total"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("exposition missing %q", want)
		}
	}
}

func TestSessionTelemetryDisabled(t *testing.T) {
	s, err := shmt.NewSession(shmt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rep := s.TelemetryReport(); rep != nil {
		t.Fatalf("TelemetryReport = %+v on a disabled session", rep)
	}
	if err := s.WriteTrace(io.Discard); err == nil {
		t.Fatal("WriteTrace must fail when telemetry is disabled")
	}
}
