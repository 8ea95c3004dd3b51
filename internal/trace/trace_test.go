package trace

import (
	"strings"
	"sync"
	"testing"
)

func TestCountsAndBusy(t *testing.T) {
	tr := New()
	tr.Record(Event{HLOP: 0, Device: "gpu", Start: 0, End: 2})
	tr.Record(Event{HLOP: 1, Device: "tpu", Start: 0, End: 3, Stolen: true})
	tr.Record(Event{HLOP: 2, Device: "gpu", Start: 2, End: 5})
	counts := tr.CountByDevice()
	if counts["gpu"] != 2 || counts["tpu"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	busy := tr.BusyByDevice()
	if busy["gpu"] != 5 || busy["tpu"] != 3 {
		t.Fatalf("busy = %v", busy)
	}
	if tr.StolenCount() != 1 {
		t.Fatalf("stolen = %d", tr.StolenCount())
	}
}

func TestFootprintAccounting(t *testing.T) {
	tr := New()
	tr.AddBase(1000)
	tr.AllocStaging(200)
	tr.AllocStaging(300)
	if tr.PeakBytes() != 1500 {
		t.Fatalf("peak = %d", tr.PeakBytes())
	}
	tr.FreeStaging(300)
	tr.AllocStaging(100)
	if tr.PeakBytes() != 1500 {
		t.Fatalf("peak should remember the max, got %d", tr.PeakBytes())
	}
	if tr.BaseBytes() != 1000 {
		t.Fatalf("base = %d", tr.BaseBytes())
	}
	// Over-freeing clamps to zero rather than going negative.
	tr.FreeStaging(10_000)
	tr.AllocStaging(1)
	if tr.PeakBytes() != 1500 {
		t.Fatalf("peak moved after clamped free: %d", tr.PeakBytes())
	}
}

func TestEventsReturnsCopy(t *testing.T) {
	tr := New()
	tr.Record(Event{HLOP: 0, Device: "gpu"})
	events := tr.Events()
	events[0].Device = "mutated"
	if tr.Events()[0].Device != "gpu" {
		t.Fatal("Events must return a copy, not the backing slice")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

// TestConcurrentRecording exercises the trace's internal locking: several
// goroutines record events and staging allocations directly, with no
// caller-side mutex. Under -race this verifies the "safe for concurrent use"
// contract.
func TestConcurrentRecording(t *testing.T) {
	tr := New()
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr.Record(Event{HLOP: w*perWorker + i, Device: "gpu"})
				tr.AllocStaging(64)
				_ = tr.Len()
				tr.FreeStaging(64)
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != workers*perWorker {
		t.Fatalf("Len = %d, want %d", tr.Len(), workers*perWorker)
	}
	seen := map[int]bool{}
	for _, e := range tr.Events() {
		if seen[e.HLOP] {
			t.Fatalf("HLOP %d recorded twice", e.HLOP)
		}
		seen[e.HLOP] = true
	}
}

func TestSummary(t *testing.T) {
	tr := New()
	tr.Record(Event{Device: "gpu", Start: 0, End: 1})
	tr.Record(Event{Device: "tpu", Start: 0, End: 2, Stolen: true})
	s := tr.Summary()
	if !strings.Contains(s, "gpu") || !strings.Contains(s, "tpu") || !strings.Contains(s, "stolen") {
		t.Fatalf("summary = %q", s)
	}
}

func TestGantt(t *testing.T) {
	tr := New()
	tr.Record(Event{HLOP: 0, Device: "gpu", Start: 0, End: 0.5})
	tr.Record(Event{HLOP: 1, Device: "tpu", Start: 0, End: 0.3})
	tr.Record(Event{HLOP: 2, Device: "tpu", Start: 0.3, End: 0.6, Stolen: true})
	g := tr.Gantt(40)
	if !strings.Contains(g, "gpu") || !strings.Contains(g, "tpu") {
		t.Fatalf("gantt missing devices:\n%s", g)
	}
	if !strings.Contains(g, "▒") {
		t.Fatal("stolen work not marked")
	}
	if !strings.Contains(g, "(1 stolen)") {
		t.Fatal("stolen count missing")
	}
	// Idle tail on the gpu row (gpu finishes at 0.5 of 0.6).
	if !strings.Contains(g, "░") {
		t.Fatal("idle time not marked")
	}
	if New().Gantt(10) != "(no events)\n" {
		t.Fatal("empty trace rendering wrong")
	}
	// Default width path.
	if tr.Gantt(0) == "" {
		t.Fatal("default width failed")
	}
}
