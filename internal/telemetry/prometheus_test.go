package telemetry

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// goldenRegistry builds a private registry with one family of each kind and
// deterministic values, so the exposition output is stable for golden
// comparison.
func goldenRegistry(t *testing.T) *Registry {
	t.Helper()
	withTelemetry(t)
	r := NewRegistry()
	runs := r.NewCounterVec("demo_runs_total", "Completed runs by policy.", "policy")
	runs.With("QAWS-TS").Add(3)
	runs.With("work-stealing").Inc()
	steals := r.NewCounter("demo_steals_total", "Successful work steals.")
	steals.Add(17)
	depth := r.NewGaugeVec("demo_queue_depth", "Task-queue depth by device.", "device")
	depth.With("gpu").Set(2)
	depth.With("tpu").Set(0)
	wait := r.NewHistogram("demo_wait_seconds", "Queue wait time.", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.002, 0.002, 0.05, 2} {
		wait.Observe(v)
	}
	return r
}

func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry(t).WriteExposition(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "prometheus.golden.txt", buf.Bytes())
}

func TestPrometheusExpositionStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry(t).WriteExposition(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	// Every family gets HELP and TYPE lines with the right type.
	for _, want := range []string{
		"# HELP demo_runs_total Completed runs by policy.",
		"# TYPE demo_runs_total counter",
		"# TYPE demo_queue_depth gauge",
		"# TYPE demo_wait_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Labelled series use the name{key="value"} value form.
	for _, want := range []string{
		`demo_runs_total{policy="QAWS-TS"} 3`,
		`demo_runs_total{policy="work-stealing"} 1`,
		"demo_steals_total 17",
		`demo_queue_depth{device="gpu"} 2`,
		`demo_queue_depth{device="tpu"} 0`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("missing series %q in:\n%s", want, out)
		}
	}
	// Histogram buckets are cumulative and end at +Inf == count.
	for _, want := range []string{
		`demo_wait_seconds_bucket{le="0.001"} 1`,
		`demo_wait_seconds_bucket{le="0.01"} 3`,
		`demo_wait_seconds_bucket{le="0.1"} 4`,
		`demo_wait_seconds_bucket{le="+Inf"} 5`,
		"demo_wait_seconds_count 5",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("missing bucket %q in:\n%s", want, out)
		}
	}
}

// TestExemplarExposition: an ObserveExemplar annotates the matching bucket
// with an OpenMetrics exemplar suffix in the OpenMetrics rendering only;
// the classic 0.0.4 exposition stays exemplar-free (a trailing '# {...}' is
// a parse error for real Prometheus and would fail the whole scrape).
func TestExemplarExposition(t *testing.T) {
	withTelemetry(t)
	r := NewRegistry()
	h := r.NewHistogram("ex_wait_seconds", "w", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.ObserveExemplar(0.05, "abcd1234-7")
	h.ObserveExemplar(2, "abcd1234-9")

	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`ex_wait_seconds_bucket{le="0.1"} 2 # {trace_id="abcd1234-7"} 0.05`,
		`ex_wait_seconds_bucket{le="+Inf"} 3 # {trace_id="abcd1234-9"} 2`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("missing exemplar line %q in:\n%s", want, out)
		}
	}
	// The un-exemplared bucket keeps the plain form.
	if !strings.Contains(out, "ex_wait_seconds_bucket{le=\"0.001\"} 1\n") {
		t.Fatalf("plain bucket line altered:\n%s", out)
	}
	// OpenMetrics output must be terminated.
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("OpenMetrics output missing '# EOF' terminator:\n%s", out)
	}

	// The classic exposition of the same registry carries no exemplars.
	buf.Reset()
	if err := r.WriteExposition(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "trace_id") {
		t.Fatalf("classic exposition leaked an exemplar:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), "# EOF") {
		t.Fatalf("classic exposition carries an OpenMetrics terminator:\n%s", buf.String())
	}
}

// TestOpenMetricsCounterNaming: OpenMetrics counter metadata drops the
// '_total' suffix while the sample lines keep it.
func TestOpenMetricsCounterNaming(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry(t).WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE demo_runs counter",
		"# TYPE demo_steals counter",
		`demo_runs_total{policy="QAWS-TS"} 3`,
		"demo_steals_total 17",
		"# TYPE demo_queue_depth gauge",
		"# TYPE demo_wait_seconds histogram",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "# TYPE demo_runs_total") {
		t.Fatalf("OpenMetrics counter metadata kept '_total':\n%s", out)
	}
}

// TestExpositionNegotiation: the /metrics handler serves classic 0.0.4 by
// default and switches to OpenMetrics (content type, exemplars, '# EOF')
// only when the client's Accept header asks for it.
func TestExpositionNegotiation(t *testing.T) {
	withTelemetry(t)
	r := NewRegistry()
	h := r.NewHistogram("neg_wait_seconds", "w", []float64{0.1})
	h.ObserveExemplar(0.05, "neg-trace-1")
	handler := ExpositionHandler(r)

	get := func(accept string) (string, string) {
		req := httptest.NewRequest("GET", "/metrics", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		rec := httptest.NewRecorder()
		handler(rec, req)
		return rec.Header().Get("Content-Type"), rec.Body.String()
	}

	// Default (and explicit text/plain) scrapes are classic and clean.
	for _, accept := range []string{"", "text/plain;version=0.0.4;q=0.5,*/*;q=0.1"} {
		ct, body := get(accept)
		if ct != ContentTypeClassic {
			t.Fatalf("Accept=%q: content-type = %q, want classic", accept, ct)
		}
		if strings.Contains(body, "trace_id") || strings.Contains(body, "# EOF") {
			t.Fatalf("Accept=%q: classic scrape carries OpenMetrics syntax:\n%s", accept, body)
		}
	}

	// An OpenMetrics-negotiating scraper gets exemplars and the terminator.
	ct, body := get("application/openmetrics-text;version=1.0.0;q=0.75,text/plain;version=0.0.4;q=0.5")
	if ct != ContentTypeOpenMetrics {
		t.Fatalf("content-type = %q, want OpenMetrics", ct)
	}
	if !strings.Contains(body, `# {trace_id="neg-trace-1"} 0.05`) {
		t.Fatalf("OpenMetrics scrape missing exemplar:\n%s", body)
	}
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Fatalf("OpenMetrics scrape missing '# EOF':\n%s", body)
	}
}

// TestObserveExemplarDisabledAllocatesNothing extends the disabled-path
// contract to the exemplar variant.
func TestObserveExemplarDisabledAllocatesNothing(t *testing.T) {
	Disable()
	r := NewRegistry()
	h := r.NewHistogram("exd_wait_seconds", "w", ExpBuckets(1e-6, 4, 12))
	if n := testing.AllocsPerRun(1000, func() {
		h.ObserveExemplar(0.5, "some-trace-id")
	}); n != 0 {
		t.Fatalf("disabled ObserveExemplar allocated %v times per op", n)
	}
}

// TestObserveExemplarEmptyTraceID: an empty trace ID degrades to a plain
// observation without storing an exemplar (checked via the OpenMetrics
// rendering, the only one that would show it).
func TestObserveExemplarEmptyTraceID(t *testing.T) {
	withTelemetry(t)
	r := NewRegistry()
	h := r.NewHistogram("exe_wait_seconds", "w", []float64{1})
	h.ObserveExemplar(0.5, "")
	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "trace_id") {
		t.Fatalf("empty trace ID stored an exemplar:\n%s", buf.String())
	}
	if h.Count() != 1 {
		t.Fatalf("observation lost: count = %d", h.Count())
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		3:      "3",
		-2:     "-2",
		0.0545: "0.0545",
		1e18:   "1e+18",
	}
	for v, want := range cases {
		if got := formatValue(v); got != want {
			t.Fatalf("formatValue(%g) = %q, want %q", v, got, want)
		}
	}
}

// TestServeEndToEnd scrapes the Default registry over real HTTP through the
// handler both daemons mount on /metrics: the standard schema must be
// exposed.
func TestServeEndToEnd(t *testing.T) {
	withTelemetry(t)
	StealAttempts.Inc()

	srv := httptest.NewServer(ExpositionHandler(Default))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// The standard schema appears even for series that have never moved;
	// these are the acceptance-criterion families.
	for _, want := range []string{
		"# TYPE shmt_steal_attempts_total counter",
		"# TYPE shmt_breaker_state gauge",
		"# TYPE shmt_arena_hits_total counter",
		"# TYPE shmt_plan_cache_hits_total counter",
		"shmt_steal_attempts_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("scrape missing %q in:\n%s", want, body)
		}
	}
}
