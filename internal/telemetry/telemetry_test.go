package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// withTelemetry enables the gate for one test and restores the disabled
// default afterwards. Tests in this package must not run in parallel: the
// gate is process-wide.
func withTelemetry(t *testing.T) {
	t.Helper()
	Enable()
	t.Cleanup(Disable)
}

func TestGateDisabledIsInert(t *testing.T) {
	Disable()
	r := NewRegistry()
	c := r.NewCounter("t_c", "c")
	g := r.NewGauge("t_g", "g")
	h := r.NewHistogram("t_h", "h", []float64{1, 10})

	c.Inc()
	c.Add(5)
	g.Set(7)
	g.Add(3)
	h.Observe(0.5)

	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("disabled instrumentation mutated state: c=%d g=%d h=%d/%g",
			c.Value(), g.Value(), h.Count(), h.Sum())
	}
}

func TestCounterGaugeEnabled(t *testing.T) {
	withTelemetry(t)
	r := NewRegistry()
	c := r.NewCounter("t_c", "c")
	g := r.NewGauge("t_g", "g")

	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	withTelemetry(t)
	r := NewRegistry()
	h := r.NewHistogram("t_h", "h", []float64{1, 10, 100})

	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 556.5 {
		t.Fatalf("sum = %g, want 556.5", h.Sum())
	}
	// Bucket semantics are le (inclusive upper bound): 0.5 and 1 land in the
	// le=1 bucket, 5 in le=10, 50 in le=100, 500 in +Inf.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if got := h.buckets[i].Load(); got != w {
			t.Fatalf("bucket[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestVecResolvesStableChildren(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("t_v", "v", "device")
	a1, a2, b := v.With("gpu"), v.With("gpu"), v.With("tpu")
	if a1 != a2 {
		t.Fatal("With must return the same child for the same label")
	}
	if a1 == b {
		t.Fatal("distinct labels must get distinct children")
	}
	gv := r.NewGaugeVec("t_gv", "gv", "device")
	if gv.With("x") != gv.With("x") {
		t.Fatal("gauge vec children not stable")
	}
	hv := r.NewHistogramVec("t_hv", "hv", "device", []float64{1})
	if hv.With("x") != hv.With("x") {
		t.Fatal("histogram vec children not stable")
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-6, 4, 5)
	if len(b) != 5 {
		t.Fatalf("len = %d", len(b))
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not ascending: %v", b)
		}
		if got, want := b[i]/b[i-1], 4.0; got < want*0.999 || got > want*1.001 {
			t.Fatalf("ratio %g, want 4", got)
		}
	}
	// Degenerate parameters collapse to a single bucket rather than panicking.
	if got := ExpBuckets(0, 4, 5); len(got) != 1 {
		t.Fatalf("degenerate start: %v", got)
	}
	if got := ExpBuckets(1, 1, 5); len(got) != 1 {
		t.Fatalf("degenerate factor: %v", got)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate metric name must panic")
		}
	}()
	r.NewGauge("dup", "second")
}

func TestSnapshotDelta(t *testing.T) {
	withTelemetry(t)
	r := NewRegistry()
	c := r.NewCounter("s_c", "c")
	v := r.NewCounterVec("s_v", "v", "device")
	h := r.NewHistogram("s_h", "h", []float64{1})
	c.Add(3)
	v.With("gpu").Inc()

	base := r.Snapshot()
	c.Add(2)
	v.With("tpu").Add(7)
	h.Observe(0.5)
	d := r.Snapshot().Delta(base)

	want := Snapshot{
		"s_c":               2,
		`s_v{device="tpu"}`: 7,
		"s_h_count":         1,
		"s_h_sum":           0.5,
	}
	if len(d) != len(want) {
		t.Fatalf("delta = %v, want %v", d, want)
	}
	for k, v := range want {
		if d[k] != v {
			t.Fatalf("delta[%s] = %g, want %g", k, d[k], v)
		}
	}
	if _, ok := d[`s_v{device="gpu"}`]; ok {
		t.Fatal("unchanged series must not appear in the delta")
	}
}

func TestSeriesKeyFormat(t *testing.T) {
	if got := seriesKey("m", "", ""); got != "m" {
		t.Fatalf("unlabelled key = %q", got)
	}
	if got, want := seriesKey("m", "device", "gpu"), `m{device="gpu"}`; got != want {
		t.Fatalf("labelled key = %q, want %q", got, want)
	}
}

// TestDisabledPathAllocatesNothing is the observability contract: with the
// gate off, every hot-path instrument op costs one atomic load and zero
// allocations (ISSUE acceptance criterion).
func TestDisabledPathAllocatesNothing(t *testing.T) {
	Disable()
	r := NewRegistry()
	c := r.NewCounter("a_c", "c")
	g := r.NewGauge("a_g", "g")
	h := r.NewHistogram("a_h", "h", ExpBuckets(1e-6, 4, 12))
	vc := r.NewCounterVec("a_v", "v", "device").With("gpu") // resolved at setup

	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(1)
		g.Add(-1)
		h.Observe(0.5)
		vc.Add(2)
	}); n != 0 {
		t.Fatalf("disabled instrumentation allocated %v times per op", n)
	}
}

// TestEnabledHotPathAllocatesNothing checks design rule 2: even enabled,
// counters/gauges/histograms never allocate on the hot path (label lookups
// are resolved at setup time).
func TestEnabledHotPathAllocatesNothing(t *testing.T) {
	withTelemetry(t)
	r := NewRegistry()
	c := r.NewCounter("e_c", "c")
	g := r.NewGauge("e_g", "g")
	h := r.NewHistogram("e_h", "h", ExpBuckets(1e-6, 4, 12))
	vc := r.NewCounterVec("e_v", "v", "device").With("gpu")

	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Add(1)
		h.Observe(3e-4)
		vc.Add(2)
	}); n != 0 {
		t.Fatalf("enabled hot path allocated %v times per op", n)
	}
}

// TestRecorderReset: Reset truncates the span log and keeps its backing
// array.
func TestRecorderReset(t *testing.T) {
	rec := NewRecorder()
	for i := 0; i < 64; i++ {
		rec.RecordSpan(Span{Track: "gpu", Name: "s", Clock: ClockVirtual, Start: float64(i), End: float64(i) + 1})
	}
	rec.Reset()
	if n := len(rec.Spans()); n != 0 {
		t.Fatalf("count after Reset = %d", n)
	}
	// The slab survives the reset: recording within the retained capacity
	// must not allocate.
	if n := testing.AllocsPerRun(50, func() {
		rec.RecordSpan(Span{Track: "gpu", Name: "s", Clock: ClockVirtual})
	}); n != 0 {
		t.Fatalf("record after Reset allocated %v times per op", n)
	}
}

func TestRecorderSpans(t *testing.T) {
	rec := NewRecorder()
	rec.RecordSpan(Span{Track: "gpu", Name: "Sobel", Clock: ClockVirtual, Start: 0, End: 1, ID: 0})
	rec.RecordSpan(Span{Track: "tpu", Name: "Sobel", Clock: ClockVirtual, Start: 0.5, End: 2, ID: 1, StealFrom: "gpu"})
	if n := len(rec.Spans()); n != 2 {
		t.Fatalf("count = %d", n)
	}
	spans := rec.Spans()
	spans[0].Track = "mutated"
	if rec.Spans()[0].Track != "gpu" {
		t.Fatal("Spans must return a copy")
	}
}

func TestReportLanesAndDeltas(t *testing.T) {
	withTelemetry(t)
	rec := NewRecorder()
	StealAttempts.Add(4) // standard Default-registry metric

	rec.RecordSpan(Span{Track: "gpu", Name: "Sobel", Clock: ClockVirtual, Start: 0, End: 1, ID: 0})
	rec.RecordSpan(Span{Track: "gpu", Name: "Sobel", Clock: ClockVirtual, Start: 1, End: 3, ID: 1})
	rec.RecordSpan(Span{Track: "tpu", Name: "Sobel", Clock: ClockVirtual, Start: 0, End: 2, ID: 2, StealFrom: "gpu"})
	rec.RecordSpan(Span{Track: "host", Name: "execute", Clock: ClockWall, Start: 0, End: 0.25})

	rep := rec.Report()
	if rep.Spans != 4 {
		t.Fatalf("spans = %d", rep.Spans)
	}
	if rep.Counters["shmt_steal_attempts_total"] != 4 {
		t.Fatalf("counter delta missing: %v", rep.Counters)
	}
	if len(rep.Lanes) != 3 {
		t.Fatalf("lanes = %+v", rep.Lanes)
	}
	// Sorted by (clock, track): virtual gpu, virtual tpu, wall host.
	if rep.Lanes[0].Track != "gpu" || rep.Lanes[0].Clock != "virtual" ||
		rep.Lanes[1].Track != "tpu" || rep.Lanes[2].Clock != "wall" {
		t.Fatalf("lane order wrong: %+v", rep.Lanes)
	}
	if rep.Lanes[0].Spans != 2 || rep.Lanes[0].Busy != 3 || rep.Lanes[0].LastEnd != 3 {
		t.Fatalf("gpu lane: %+v", rep.Lanes[0])
	}
	if rep.Lanes[1].Stolen != 1 {
		t.Fatalf("tpu lane should count 1 stolen span: %+v", rep.Lanes[1])
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v\n%s", err, buf.String())
	}
	if back.Spans != rep.Spans || len(back.Lanes) != len(rep.Lanes) {
		t.Fatal("round-tripped report lost data")
	}
	for _, field := range []string{"wall_seconds", "counters", "totals", "lanes"} {
		if !strings.Contains(buf.String(), field) {
			t.Fatalf("report JSON missing %q:\n%s", field, buf.String())
		}
	}
}
