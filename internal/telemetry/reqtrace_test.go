package telemetry

import (
	"strings"
	"testing"
	"time"
)

func TestFlightRecorderRingWrapNewestFirst(t *testing.T) {
	f := NewFlightRecorder(4, 0)
	for i := 0; i < 7; i++ {
		f.Record(RequestTrace{TraceID: string(rune('a' + i))})
	}
	got := f.Snapshot(false)
	if len(got) != 4 {
		t.Fatalf("retained %d traces, want ring capacity 4", len(got))
	}
	// Recorded a..g; the ring keeps the last 4 (d e f g), newest first.
	want := []string{"g", "f", "e", "d"}
	for i, tr := range got {
		if tr.TraceID != want[i] {
			t.Fatalf("snapshot[%d] = %q, want %q (full: %+v)", i, tr.TraceID, want[i], got)
		}
	}
}

func TestFlightRecorderSlowRing(t *testing.T) {
	f := NewFlightRecorder(2, 100*time.Millisecond)
	f.Record(RequestTrace{TraceID: "fast", TotalSeconds: 0.01})
	f.Record(RequestTrace{TraceID: "slow1", TotalSeconds: 0.25})
	f.Record(RequestTrace{TraceID: "fast2", TotalSeconds: 0.02})
	f.Record(RequestTrace{TraceID: "fast3", TotalSeconds: 0.03})

	// The recent ring (capacity 2) has churned past slow1, but the slow ring
	// still holds it — that is the whole point of the second ring.
	for _, tr := range f.Snapshot(false) {
		if tr.TraceID == "slow1" {
			t.Fatal("slow1 should have churned out of the recent ring")
		}
	}
	slow := f.Snapshot(true)
	if len(slow) != 1 || slow[0].TraceID != "slow1" || !slow[0].Slow {
		t.Fatalf("slow ring = %+v, want just slow1 marked Slow", slow)
	}

	st := f.Stats()
	if st.Recorded != 4 || st.Slow != 1 || st.Retained != 2 || st.RetainedSlow != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Capacity != 2 || st.SLOMillis != 100 {
		t.Fatalf("stats capacity/slo = %+v", st)
	}
}

func TestFlightRecorderNoSLODisablesSlowRetention(t *testing.T) {
	f := NewFlightRecorder(2, 0)
	f.Record(RequestTrace{TraceID: "x", TotalSeconds: 3600})
	if got := f.Snapshot(true); len(got) != 0 {
		t.Fatalf("slow ring with slo=0 holds %+v", got)
	}
	if f.SLO() != 0 {
		t.Fatalf("SLO() = %v, want 0", f.SLO())
	}
}

func TestNewTraceIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
		if !strings.Contains(id, "-") {
			t.Fatalf("trace ID %q missing prefix-counter form", id)
		}
	}
}
