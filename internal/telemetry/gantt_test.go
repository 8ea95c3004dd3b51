package telemetry_test

import (
	"testing"

	"shmt"
	"shmt/internal/parallel"
	"shmt/internal/telemetry"
	"shmt/internal/workload"
)

// chaosSpans runs a seeded chaos Sobel — the GPU fails 30 % of its
// dispatches — with the host pool w workers wide, and returns every span the
// session recorded: device lanes, transfer sub-lanes, fault intervals and
// the wall-clock host lane.
func chaosSpans(t *testing.T, w int) []telemetry.Span {
	t.Helper()
	prev := parallel.SetWorkers(w)
	defer parallel.SetWorkers(prev)
	s, err := shmt.NewSession(shmt.Config{Policy: shmt.PolicyWorkStealing, TargetPartitions: 16,
		Chaos:     map[string]shmt.ChaosConfig{"gpu": {TransientRate: 0.3}},
		Telemetry: shmt.Telemetry{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Execute(shmt.OpSobel, []*shmt.Matrix{workload.Image(256, 256, 3)}, nil); err != nil {
		t.Fatal(err)
	}
	spans := s.TelemetryRecorder().Spans()
	var faults, steals int
	for _, sp := range spans {
		if sp.Fault {
			faults++
		}
		if sp.StealFrom != "" {
			steals++
		}
	}
	if faults == 0 || steals == 0 {
		t.Fatalf("the run recorded %d fault spans and %d steals; the golden needs both", faults, steals)
	}
	return spans
}

// TestGanttGolden pins the span-fed Gantt: on a chaos run whose recording
// holds fault spans, transfer sub-lanes and steals (only the HLOP spans are
// drawn, and the run is the same at any pool width), on a busy head, idle
// tail and stolen tail laid out cell by cell, and on the layout edge cases —
// an HLOP ending exactly at the timeline's end lands in the last cell, an
// all-zero timeline does not divide by zero, and width ≤ 0 means 60 columns.
func TestGanttGolden(t *testing.T) {
	v := telemetry.ClockVirtual
	cases := []struct {
		name  string
		spans func() []telemetry.Span
		width int
		want  string
	}{
		{name: "chaos run, one worker", spans: func() []telemetry.Span { return chaosSpans(t, 1) }, width: 48,
			want: chaosGantt},
		{name: "chaos run, four workers", spans: func() []telemetry.Span { return chaosSpans(t, 4) }, width: 48,
			want: chaosGantt},
		{name: "clamps overflow", width: 10, spans: func() []telemetry.Span {
			return []telemetry.Span{{Track: "gpu", Clock: v, Start: 0.9, End: 1.0}}
		}, want: "" +
			"gpu |░░░░░░░░░█|  1 hlops\n" +
			"     0        1s\n"},
		{name: "zero-length timeline", width: 10, spans: func() []telemetry.Span {
			return []telemetry.Span{{Track: "gpu", Clock: v}}
		}, want: "" +
			"gpu |█░░░░░░░░░|  1 hlops\n" +
			"     0        1s\n"},
		{name: "layout", width: 20, spans: func() []telemetry.Span {
			return []telemetry.Span{
				{Track: "gpu", Clock: v, Start: 0, End: 0.5},
				{Track: "tpu", Clock: v, Start: 0, End: 0.5},
				{Track: "tpu", Clock: v, Start: 0.5, End: 1, StealFrom: "gpu"},
			}
		}, want: "" +
			"gpu |███████████░░░░░░░░░|  1 hlops\n" +
			"tpu |██████████▒▒▒▒▒▒▒▒▒▒|  2 hlops (1 stolen)\n" +
			"     0                  1s\n"},
		{name: "default width", width: 0, spans: func() []telemetry.Span {
			return []telemetry.Span{{Track: "gpu", Clock: v, Start: 0, End: 1}}
		}, want: "" +
			"gpu |████████████████████████████████████████████████████████████|  1 hlops\n" +
			"     0                                                          1s\n"},
		{name: "no HLOP spans", width: 10, spans: func() []telemetry.Span {
			return []telemetry.Span{
				{Track: "gpu", Clock: v, End: 1, Fault: true},
				{Track: "gpu xfer", Clock: v, End: 1},
				{Track: "host", Clock: telemetry.ClockWall, End: 1},
			}
		}, want: "(no HLOP spans)\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := telemetry.Gantt(tc.spans(), tc.width); got != tc.want {
				t.Fatalf("Gantt =\n%s\nwant\n%s", got, tc.want)
			}
		})
	}
}

// chaosGantt is the chaos run's Gantt. The GPU's idle head is its failed
// dispatches: fault spans are charged to the lane but not drawn.
const chaosGantt = "" +
	"gpu |░░░░░░░░░░░░░░░░██████████████████████▒▒▒▒▒▒▒▒▒▒|  10 hlops (3 stolen)\n" +
	"tpu |███████████████████████████████████████████████░|  6 hlops\n" +
	"     0                                        0.00069s\n"
