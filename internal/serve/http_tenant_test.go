package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"shmt"
	"shmt/internal/wire"
)

// TestHTTPTenantRoundTrip: the X-SHMT-Tenant header is parsed at admission,
// echoed on the response, recorded in the trace block and visible in the
// flight recorder's /debug/requests dump.
func TestHTTPTenantRoundTrip(t *testing.T) {
	be := &fakeBackend{}
	srv := New(be, Config{MaxBatch: 1, MaxLinger: time.Millisecond, Tracing: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/execute",
		strings.NewReader(execBody([]float64{1, 2, 3, 4}, []float64{5, 6, 7, 8})))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TenantHeader, "acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get(TenantHeader); got != "acme" {
		t.Fatalf("tenant header echo %q, want \"acme\"", got)
	}
	var body wire.Response
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Trace == nil || body.Trace.Tenant != "acme" {
		t.Fatalf("trace block %+v, want tenant \"acme\"", body.Trace)
	}

	// The backend saw the tenant on the BatchRequest.
	reqs := be.requests()
	if len(reqs) != 1 || reqs[0].Tenant != "acme" {
		t.Fatalf("backend saw %+v, want one request with Tenant \"acme\"", reqs)
	}

	// And the flight recorder retained it.
	dr, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer dr.Body.Close()
	raw, err := io.ReadAll(dr.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"tenant":"acme"`) {
		t.Fatalf("/debug/requests missing tenant attribution: %s", raw)
	}
}

// TestHTTPTenantHeaderSanitized: a malformed tenant header falls back to the
// default tenant instead of minting an arbitrary metric label.
func TestHTTPTenantHeaderSanitized(t *testing.T) {
	be := &fakeBackend{}
	srv := New(be, Config{MaxBatch: 1, MaxLinger: time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/execute",
		strings.NewReader(execBody([]float64{1, 2, 3, 4}, []float64{5, 6, 7, 8})))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TenantHeader, "bad tenant!")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get(TenantHeader); got != "" {
		t.Fatalf("sanitized tenant echoed %q, want no echo", got)
	}
	reqs := be.requests()
	if len(reqs) != 1 || reqs[0].Tenant != DefaultTenant {
		t.Fatalf("backend saw %+v, want Tenant %q", reqs, DefaultTenant)
	}
}

// TestHTTPDeadlinePressureRaisesCriticality drives a real session: a request
// with a deadline far tighter than CriticalDeadline must report most of its
// HLOPs critical (kept on high-accuracy devices), while the same request
// with no deadline keeps the policy's default critical fraction.
func TestHTTPDeadlinePressureRaisesCriticality(t *testing.T) {
	sess, err := shmt.NewSession(shmt.Config{Seed: 1, TargetPartitions: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	srv := New(sess, Config{
		MaxBatch: 1, MaxLinger: time.Millisecond,
		Tracing: true, CriticalDeadline: 2 * time.Second,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	post := func(body string) wire.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/execute", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, want 200", resp.StatusCode)
		}
		var out wire.Response
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if out.Trace == nil {
			t.Fatal("no trace block")
		}
		return out
	}
	inputs := `"inputs":[{"rows":8,"cols":8,"data":[` +
		strings.TrimSuffix(strings.Repeat("1,", 64), ",") + `]},{"rows":8,"cols":8,"data":[` +
		strings.TrimSuffix(strings.Repeat("2,", 64), ",") + `]}]`

	relaxed := post(`{"op":"add",` + inputs + `}`)
	if relaxed.Trace.DeadlinePressure != 0 {
		t.Fatalf("no-deadline request has pressure %v, want 0", relaxed.Trace.DeadlinePressure)
	}
	if relaxed.Trace.CriticalHLOPs*2 >= relaxed.HLOPs {
		t.Fatalf("relaxed request already critical-heavy (%d of %d) — baseline broken",
			relaxed.Trace.CriticalHLOPs, relaxed.HLOPs)
	}

	tight := post(`{"op":"add","timeout_ms":200,` + inputs + `}`)
	if tight.Trace.DeadlinePressure < 0.8 {
		t.Fatalf("tight-deadline pressure %v, want >= 0.8", tight.Trace.DeadlinePressure)
	}
	if tight.Trace.CriticalHLOPs*2 < tight.HLOPs {
		t.Fatalf("tight-deadline request kept only %d of %d HLOPs critical — pressure not applied",
			tight.Trace.CriticalHLOPs, tight.HLOPs)
	}
	if len(tight.Trace.DeviceHLOPs) == 0 {
		t.Fatal("trace block missing device placement")
	}
}

// TestRetryAfterSeconds pins the shared helper's rounding: ceil with a floor
// of one second.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "1"},
		{300 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1500 * time.Millisecond, "2"},
		{2 * time.Second, "2"},
		{3 * time.Second, "3"},
	}
	for _, c := range cases {
		if got := RetryAfterSeconds(c.d); got != c.want {
			t.Fatalf("RetryAfterSeconds(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}
