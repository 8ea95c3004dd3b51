package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"shmt"
	"shmt/internal/telemetry"
	"shmt/internal/wire"
)

// stageSum is the total attributed seconds across all of s's stages.
func stageSum(s telemetry.StageBreakdown) float64 {
	return s.Decode + s.QueueWait + s.BatchLinger + s.Plan + s.Transfer + s.Execute + s.Aggregate + s.Encode
}

// tracedSession builds a real session with telemetry enabled plus a traced
// server in front of it.
func tracedSession(t *testing.T, cfg Config) (*shmt.Session, *Server, *httptest.Server) {
	t.Helper()
	scfg := shmt.Config{Seed: 1, TargetPartitions: 8}
	scfg.Telemetry.Enabled = true
	sess, err := shmt.NewSession(scfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	cfg.Spans = sess.TelemetryRecorder()
	cfg.Tracing = true
	srv := New(sess, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	return sess, srv, ts
}

// TestHTTPTraceRoundTrip: an inbound X-SHMT-Trace-Id must come back on the
// response, appear in the trace block with a non-empty stage breakdown that
// sums to at most the total, and be retrievable from /debug/requests.
func TestHTTPTraceRoundTrip(t *testing.T) {
	_, _, ts := tracedSession(t, Config{MaxBatch: 4, MaxLinger: time.Millisecond})

	const inbound = "router-7f.42"
	req, _ := http.NewRequest("POST", ts.URL+"/v1/execute",
		strings.NewReader(execBody([]float64{1, 2, 3, 4}, []float64{5, 6, 7, 8})))
	req.Header.Set(TraceHeader, inbound)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(TraceHeader); got != inbound {
		t.Fatalf("trace header = %q, want round-tripped %q", got, inbound)
	}
	var body wire.Response
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Trace == nil || body.Trace.TraceID != inbound {
		t.Fatalf("trace block = %+v, want trace_id %q", body.Trace, inbound)
	}
	if body.Trace.TotalSeconds <= 0 {
		t.Fatalf("trace total = %g", body.Trace.TotalSeconds)
	}
	sum := stageSum(body.Trace.Stages)
	if sum <= 0 {
		t.Fatalf("empty stage breakdown: %+v", body.Trace.Stages)
	}
	// Stages are disjoint sub-intervals of the request, so their sum cannot
	// exceed the total, which runs to the instant encode_seconds does.
	if sum > body.Trace.TotalSeconds {
		t.Fatalf("stages sum %g > total %g: %+v", sum, body.Trace.TotalSeconds, body.Trace.Stages)
	}
	if body.Trace.Stages.Execute <= 0 {
		t.Fatalf("request that executed reports no execute stage: %+v", body.Trace.Stages)
	}
	// Decode is timed, and so is encode up to the trace block itself: the
	// block is written after the output has been formatted.
	if body.Trace.Stages.Decode <= 0 || body.Trace.Stages.Encode <= 0 {
		t.Fatalf("decode %g / encode %g in the response's trace block", body.Trace.Stages.Decode, body.Trace.Stages.Encode)
	}

	// The flight recorder has it, newest first, with the same breakdown shape.
	dr, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer dr.Body.Close()
	var dump debugRequestsResponse
	if err := json.NewDecoder(dr.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if dump.Count == 0 {
		t.Fatal("flight recorder is empty after a traced request")
	}
	var found *telemetry.RequestTrace
	for i := range dump.Traces {
		if dump.Traces[i].TraceID == inbound {
			found = &dump.Traces[i]
			break
		}
	}
	if found == nil {
		t.Fatalf("trace %q not in /debug/requests: %+v", inbound, dump.Traces)
	}
	if found.Op != "add" || found.Status != "ok" || found.BatchSize < 1 {
		t.Fatalf("retained trace = %+v", found)
	}
	if s := stageSum(found.Stages); s <= 0 || s > found.TotalSeconds {
		t.Fatalf("retained stage sum %g vs total %g", s, found.TotalSeconds)
	}
	if found.Stages.Decode <= 0 || found.Stages.Encode <= 0 {
		t.Fatalf("retained trace lacks decode/encode: %+v", found.Stages)
	}
}

// TestHTTPTraceGeneratedAndSanitized: without an inbound ID the server mints
// one; an inbound ID with forbidden characters is replaced, not echoed.
func TestHTTPTraceGeneratedAndSanitized(t *testing.T) {
	_, _, ts := tracedSession(t, Config{MaxBatch: 1, MaxLinger: time.Millisecond})

	post := func(traceHeader string) string {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/execute",
			strings.NewReader(execBody([]float64{1, 2, 3, 4}, []float64{5, 6, 7, 8})))
		if traceHeader != "" {
			req.Header.Set(TraceHeader, traceHeader)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.Header.Get(TraceHeader)
	}

	if got := post(""); got == "" {
		t.Fatal("no generated trace ID on the response")
	}
	// HTTP-legal (no control bytes) but fails the trace-ID charset.
	evil := `x"} malicious{label="injected`
	if got := post(evil); got == evil || got == "" {
		t.Fatalf("unsanitized inbound ID echoed: %q", got)
	}
	if got := post("ok-id.42:a_b"); got != "ok-id.42:a_b" {
		t.Fatalf("valid inbound ID replaced: %q", got)
	}
}

// TestTracingDisabledOmitsEverything: with Tracing off there is no trace
// header, no trace block, and /debug/requests 404s.
func TestTracingDisabledOmitsEverything(t *testing.T) {
	be := &fakeBackend{}
	srv := New(be, Config{MaxBatch: 1, MaxLinger: time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	resp, err := http.Post(ts.URL+"/v1/execute", "application/json",
		strings.NewReader(execBody([]float64{1, 2, 3, 4}, []float64{5, 6, 7, 8})))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(TraceHeader); got != "" {
		t.Fatalf("tracing disabled but trace header %q present", got)
	}
	var body wire.Response
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Trace != nil {
		t.Fatalf("tracing disabled but trace block present: %+v", body.Trace)
	}
	dr, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer dr.Body.Close()
	if dr.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/requests without tracing: status %d, want 404", dr.StatusCode)
	}
}

// TestSlowSLOFlightRecorder: with a sub-microsecond SLO every request is
// slow, so the slow-only dump is non-empty and marked.
func TestSlowSLOFlightRecorder(t *testing.T) {
	be := &fakeBackend{}
	srv := New(be, Config{MaxBatch: 1, MaxLinger: time.Millisecond,
		Tracing: true, SlowSLO: time.Nanosecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	resp, err := http.Post(ts.URL+"/v1/execute", "application/json",
		strings.NewReader(execBody([]float64{1, 2, 3, 4}, []float64{5, 6, 7, 8})))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	dr, err := http.Get(ts.URL + "/debug/requests?slow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer dr.Body.Close()
	var dump debugRequestsResponse
	if err := json.NewDecoder(dr.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if !dump.SlowOnly || dump.Count == 0 || !dump.Traces[0].Slow {
		t.Fatalf("slow dump = %+v", dump)
	}
}

// TestStatusz checks the JSON snapshot against a real session (topology
// fields present) and the HTML rendering; both show an outstanding
// announcement.
func TestStatusz(t *testing.T) {
	_, srv, ts := tracedSession(t, Config{MaxBatch: 4, MaxLinger: time.Millisecond})
	midBody := srv.batcher.Announce()
	defer midBody.Release()

	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statuszResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "ok" {
		t.Fatalf("status = %q", st.Status)
	}
	if st.Policy == "" || len(st.Devices) == 0 {
		t.Fatalf("missing backend topology: %+v", st)
	}
	if st.PlanCache == nil {
		t.Fatal("missing plan-cache stats for a real session")
	}
	if st.QueueCap < 1 || st.MaxBatch != 4 || st.Arriving != 1 {
		t.Fatalf("queue/batch config: %+v", st)
	}
	if !st.Tracing || st.FlightRecorder == nil {
		t.Fatalf("tracing fields: %+v", st)
	}
	if st.GoVersion == "" || st.UptimeSeconds < 0 {
		t.Fatalf("process fields: %+v", st)
	}

	html, err := http.Get(ts.URL + "/statusz?format=html")
	if err != nil {
		t.Fatal(err)
	}
	defer html.Body.Close()
	page, _ := io.ReadAll(html.Body)
	if ct := html.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("html content-type = %q", ct)
	}
	for _, want := range []string{"<html", "shmt serving status", "<th>arriving</th><td>1</td>", "flight recorder", "/debug/requests"} {
		if !strings.Contains(string(page), want) {
			t.Fatalf("html page missing %q:\n%s", want, page)
		}
	}
}

// TestStatuszFakeBackendOmitsTopology: a minimal Backend (no optional
// interfaces) still gets a statusz, just without the topology fields.
func TestStatuszFakeBackendOmitsTopology(t *testing.T) {
	be := &fakeBackend{}
	srv := New(be, Config{MaxBatch: 1, MaxLinger: time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statuszResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "ok" || st.Policy != "" || st.Devices != nil || st.PlanCache != nil {
		t.Fatalf("fake-backend statusz = %+v", st)
	}
}

// TestHealthzTransitions drives the full health state machine over the fake
// backend: ok → degraded (breaker open) → ok (re-admitted), and draining
// takes precedence over degraded during shutdown.
func TestHealthzTransitions(t *testing.T) {
	be := &fakeBackend{}
	srv := New(be, Config{MaxBatch: 1, MaxLinger: time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	health := func() (int, healthResponse) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h healthResponse
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, h
	}

	if code, h := health(); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthy: %d %+v", code, h)
	}
	be.quar = []string{"tpu"}
	if code, h := health(); code != http.StatusOK || h.Status != "degraded" || len(h.Quarantined) != 1 {
		t.Fatalf("degraded: %d %+v", code, h)
	}
	be.quar = nil
	if code, h := health(); code != http.StatusOK || h.Status != "ok" || h.Quarantined != nil {
		t.Fatalf("re-admitted: %d %+v", code, h)
	}

	// Draining beats degraded: even with open breakers the status must be
	// draining (and 503) so load balancers stop routing.
	be.quar = []string{"tpu"}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, h := health(); code != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("draining: %d %+v", code, h)
	}
}

// TestHealthzChaosBreakerCycle runs the real stack through a chaos outage:
// the breaker opens mid-round (observed by querying /healthz from inside the
// breaker-open callback — the only deterministic window), the probe
// re-admits the device, and /healthz is back to ok afterwards.
func TestHealthzChaosBreakerCycle(t *testing.T) {
	// FailFirstOps 3 fails the tpu exactly as often as the engine's breaker
	// threshold, so the breaker opens, and the probe (the next tpu op)
	// succeeds and re-admits within the same round.
	scfg := shmt.Config{Seed: 5, TargetPartitions: 16,
		Chaos: map[string]shmt.ChaosConfig{"tpu": {FailFirstOps: 3}},
	}
	sess, err := shmt.NewSession(scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	srv := New(sess, Config{MaxBatch: 1, MaxLinger: time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	var events []string
	var midOutage healthResponse
	sess.OnBreakerEvent(func(device, event string) {
		events = append(events, device+":"+event)
		if event == "open" && midOutage.Status == "" {
			// The breaker is open right now; /healthz must say degraded.
			resp, err := http.Get(ts.URL + "/healthz")
			if err != nil {
				t.Errorf("healthz during outage: %v", err)
				return
			}
			defer resp.Body.Close()
			json.NewDecoder(resp.Body).Decode(&midOutage)
		}
	})

	// The payload must be large enough that the planner spreads partitions
	// over every device, with tpu work left after the breaker opens for the
	// probe — at 64×64 the tpu's last chunk is the one that opens it.
	const dim = 128
	va, vb := make([]float64, dim*dim), make([]float64, dim*dim)
	for i := range va {
		va[i], vb[i] = float64(i), float64(2*i)
	}
	ja, _ := json.Marshal(va)
	jb, _ := json.Marshal(vb)
	body := fmt.Sprintf(`{"op":"add","inputs":[{"rows":%d,"cols":%d,"data":%s},{"rows":%d,"cols":%d,"data":%s}]}`,
		dim, dim, ja, dim, dim, jb)
	resp, err := http.Post(ts.URL+"/v1/execute", "application/json",
		strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("outage round should survive: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-SHMT-Degraded") != "true" {
		t.Fatal("outage round not flagged degraded")
	}

	if len(events) < 2 || !strings.HasSuffix(events[0], ":open") {
		t.Fatalf("breaker events = %v, want open then readmitted", events)
	}
	sawReadmit := false
	for _, e := range events {
		if strings.HasSuffix(e, ":readmitted") {
			sawReadmit = true
		}
	}
	if !sawReadmit {
		t.Fatalf("no re-admission event: %v", events)
	}
	if midOutage.Status != "degraded" || len(midOutage.Quarantined) == 0 {
		t.Fatalf("mid-outage healthz = %+v, want degraded", midOutage)
	}

	// After probe re-admission the cycle closes: ok again, nothing quarantined.
	after, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer after.Body.Close()
	var h healthResponse
	if err := json.NewDecoder(after.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Quarantined != nil {
		t.Fatalf("post-recovery healthz = %+v, want ok", h)
	}
}

// TestRequestLogLine: the per-request slog line carries the trace ID, op,
// outcome and stage timings, at Warn for shed/draining outcomes.
func TestRequestLogLine(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	be := &fakeBackend{}
	srv := New(be, Config{MaxBatch: 1, MaxLinger: time.Millisecond,
		Tracing: true, Logger: logger})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/execute", "application/json",
		strings.NewReader(execBody([]float64{1, 2, 3, 4}, []float64{5, 6, 7, 8})))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	var line map[string]any
	dec := json.NewDecoder(&buf)
	for {
		var l map[string]any
		if err := dec.Decode(&l); err != nil {
			break
		}
		if l["msg"] == "request" {
			line = l
			break
		}
	}
	if line == nil {
		t.Fatalf("no request log line in:\n%s", buf.String())
	}
	for _, k := range []string{"trace_id", "op", "outcome", "batch_size", "total_ms", "decode_ms", "queue_wait_ms", "execute_ms", "encode_ms"} {
		if _, ok := line[k]; !ok {
			t.Fatalf("request line missing %q: %v", k, line)
		}
	}
	if line["op"] != "add" || line["outcome"] != "ok" || line["trace_id"] == "" {
		t.Fatalf("request line = %v", line)
	}

	// Drain, then a refused request must log at WARN with outcome draining.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	resp2, err := http.Post(ts.URL+"/v1/execute", "application/json",
		strings.NewReader(execBody([]float64{1, 2, 3, 4}, []float64{5, 6, 7, 8})))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if !strings.Contains(buf.String(), `"outcome":"draining"`) || !strings.Contains(buf.String(), `"level":"WARN"`) {
		t.Fatalf("draining refusal not logged at WARN:\n%s", buf.String())
	}
}

// TestLifecycleLogLines: Shutdown emits drain begin/end.
func TestLifecycleLogLines(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	be := &fakeBackend{}
	srv := New(be, Config{MaxBatch: 1, MaxLinger: time.Millisecond, Logger: logger})
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "drain begin") || !strings.Contains(out, "drain end") {
		t.Fatalf("missing drain lifecycle lines:\n%s", out)
	}
}

// TestPprofOptIn: the pprof index mounts only with EnablePprof.
func TestPprofOptIn(t *testing.T) {
	be := &fakeBackend{}
	for _, enabled := range []bool{false, true} {
		srv := New(be, Config{MaxBatch: 1, MaxLinger: time.Millisecond, EnablePprof: enabled})
		ts := httptest.NewServer(srv.Handler())
		resp, err := http.Get(ts.URL + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		wantOK := enabled
		if gotOK := resp.StatusCode == http.StatusOK; gotOK != wantOK {
			t.Fatalf("pprof enabled=%v: status %d", enabled, resp.StatusCode)
		}
		ts.Close()
		srv.Shutdown(context.Background())
	}
}

// TestExecuteEmitsRequestLaneSpans: a traced request leaves root spans (the
// request interval plus its stage slices) on the session recorder, rendered
// under the request process in the Perfetto export.
func TestExecuteEmitsRequestLaneSpans(t *testing.T) {
	sess, _, ts := tracedSession(t, Config{MaxBatch: 1, MaxLinger: time.Millisecond})

	req, _ := http.NewRequest("POST", ts.URL+"/v1/execute",
		strings.NewReader(execBody([]float64{1, 2, 3, 4}, []float64{5, 6, 7, 8})))
	req.Header.Set(TraceHeader, "lane-test-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	var roots, engineTagged int
	for _, s := range sess.TelemetryRecorder().Spans() {
		if s.TraceID != "lane-test-1" {
			continue
		}
		if s.Root {
			roots++
		} else {
			engineTagged++
		}
	}
	// At minimum the handler's request span plus the batcher's stage slices.
	if roots < 2 {
		t.Fatalf("root spans for the trace = %d, want request + stage slices", roots)
	}
	if engineTagged == 0 {
		t.Fatal("no engine spans attributed to the trace")
	}

	var buf bytes.Buffer
	if err := sess.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf telemetry.TraceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	var lane, arrows bool
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" && ev.PID == 3 {
			if name, _ := ev.Args["name"].(string); name == "lane-test-1" {
				lane = true
			}
		}
		if ev.Name == "request" && ev.Ph == "s" {
			arrows = true
		}
	}
	if !lane || !arrows {
		t.Fatalf("Perfetto export missing request lane (%v) or flow arrows (%v)", lane, arrows)
	}
}

// TestUntracedSubmitAllocs: with tracing off, one Batcher.Submit through an
// immediate fake backend — the backend's own report included — allocates at
// most 9 times, as it did before request tracing existed. Tracing work that
// leaks into the untraced path (a span name formatted, a stage record kept)
// shows here as a tenth allocation; BenchmarkServeTraceOverhead/enabled is 10.
func TestUntracedSubmitAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector adds allocations of its own")
	}
	batcher := NewBatcher(&fakeBackend{}, Config{MaxBatch: 1, MaxLinger: time.Millisecond, QueueDepth: 64})
	defer batcher.Close(context.Background())
	req := testReq()
	ctx := context.Background()
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := batcher.Submit(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 9 {
		t.Fatalf("an untraced Submit allocates %.0f times, want at most 9", allocs)
	}
}

// BenchmarkServeTraceOverhead measures Batcher.Submit against an immediate
// fake backend with tracing off vs on — the serving layer's per-request
// tracing cost, isolated from engine work. TestUntracedSubmitAllocs holds
// the disabled row's allocation count.
func BenchmarkServeTraceOverhead(b *testing.B) {
	run := func(b *testing.B, tracing bool) {
		be := &fakeBackend{}
		cfg := Config{MaxBatch: 1, MaxLinger: time.Millisecond, QueueDepth: 64, Tracing: tracing}
		if tracing {
			cfg.Spans = telemetry.NewRecorder()
			cfg.SlowSLO = time.Second
		}
		batcher := NewBatcher(be, cfg)
		defer batcher.Close(context.Background())
		req := testReq()
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if tracing {
				req.TraceID = "bench-trace"
			}
			if _, err := batcher.Submit(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, false) })
	b.Run("enabled", func(b *testing.B) { run(b, true) })
}
