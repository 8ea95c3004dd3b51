package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"shmt"
	"shmt/internal/wire"
)

func execBody(a, b []float64) string {
	j1, _ := json.Marshal(a)
	j2, _ := json.Marshal(b)
	return fmt.Sprintf(`{"op":"add","inputs":[{"rows":2,"cols":2,"data":%s},{"rows":2,"cols":2,"data":%s}]}`, j1, j2)
}

// TestHTTPExecuteEndToEnd drives the full stack — handler, batcher, real
// session — with concurrent clients and checks outputs and headers.
func TestHTTPExecuteEndToEnd(t *testing.T) {
	sess, err := shmt.NewSession(shmt.Config{Seed: 1, TargetPartitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	srv := New(sess, Config{MaxBatch: 8, MaxLinger: 20 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	const n = 6
	var wg sync.WaitGroup
	type reply struct {
		status int
		body   wire.Response
		batch  string
	}
	replies := make([]reply, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			base := float64(i)
			body := execBody(
				[]float64{base, base + 1, base + 2, base + 3},
				[]float64{10, 10, 10, 10},
			)
			resp, err := http.Post(ts.URL+"/v1/execute", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			replies[i].status = resp.StatusCode
			replies[i].batch = resp.Header.Get("X-SHMT-Batch-Size")
			if err := json.NewDecoder(resp.Body).Decode(&replies[i].body); err != nil {
				t.Errorf("request %d: decode: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	for i, r := range replies {
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, r.status)
		}
		base := float64(i)
		want := []float64{base + 10, base + 11, base + 12, base + 13}
		got := r.body.Output.Data
		if len(got) != 4 {
			t.Fatalf("request %d: output %v", i, got)
		}
		// Devices compute approximately (see ops_test.go MAPE bounds); 2% is
		// loose enough for that yet far below the ≥10% error a cross-request
		// result mixup would produce here.
		for k := range want {
			if math.Abs(got[k]-want[k])/want[k] > 0.02 {
				t.Fatalf("request %d: output %v, want ≈%v — cross-request result mixup?", i, got, want)
			}
		}
		if r.batch == "" || r.body.BatchSize < 1 {
			t.Fatalf("request %d: missing batch-size accounting (header %q, body %d)", i, r.batch, r.body.BatchSize)
		}
	}
}

// TestHTTPBadRequests covers the 400 paths: bad JSON, unknown op, shape
// mismatch, no inputs, and an iteration count the kernel would truncate or
// whose work overflows an HLOP's element count.
func TestHTTPBadRequests(t *testing.T) {
	be := &fakeBackend{}
	srv := New(be, Config{MaxBatch: 1, MaxLinger: time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	cases := []string{
		`{not json`,
		`{"op":"frobnicate","inputs":[{"rows":1,"cols":1,"data":[1]}]}`,
		`{"op":"add","inputs":[{"rows":2,"cols":2,"data":[1,2,3]}]}`,
		`{"op":"add","inputs":[]}`,
		`{"op":"stencil","inputs":[{"rows":1,"cols":2,"data":[1,2]},{"rows":1,"cols":2,"data":[1,2]}],"attrs":{"steps":2.5}}`,
		`{"op":"stencil","inputs":[{"rows":1,"cols":2,"data":[1,2]},{"rows":1,"cols":2,"data":[1,2]}],"attrs":{"steps":9.2e18}}`,
		`{"op":"FDWT97","inputs":[{"rows":2,"cols":2,"data":[1,2,3,4]}],"attrs":{"levels":1.5}}`,
	}
	for i, body := range cases {
		resp, err := http.Post(ts.URL+"/v1/execute", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("case %d: status %d, want 400", i, resp.StatusCode)
		}
	}
}

// TestHTTPHealthz walks healthz through its three states: ok, degraded
// (breakers open), draining (a 503 with Retry-After).
func TestHTTPHealthz(t *testing.T) {
	be := &fakeBackend{}
	srv := New(be, Config{MaxBatch: 1, MaxLinger: time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	check := func(wantStatus int, wantState string, wantQuar string) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("healthz status %d, want %d", resp.StatusCode, wantStatus)
		}
		var h healthResponse
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		if h.Status != wantState {
			t.Fatalf("healthz state %q, want %q", h.Status, wantState)
		}
		if got := resp.Header.Get("X-SHMT-Quarantined"); got != wantQuar {
			t.Fatalf("quarantined header %q, want %q", got, wantQuar)
		}
		return resp
	}

	check(http.StatusOK, "ok", "")
	be.quar = []string{"tpu"}
	check(http.StatusOK, "degraded", "tpu")
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Like every other 503 on both tiers, the draining one says when to
	// come back.
	if resp := check(http.StatusServiceUnavailable, "draining", ""); resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("draining healthz Retry-After = %q, want 1", resp.Header.Get("Retry-After"))
	}
}

// TestHTTPMetricsEndpoint: the serving mux exposes the process registry.
func TestHTTPMetricsEndpoint(t *testing.T) {
	be := &fakeBackend{}
	srv := New(be, Config{MaxBatch: 4, MaxLinger: time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	resp, err := http.Post(ts.URL+"/v1/execute", "application/json",
		strings.NewReader(execBody([]float64{1, 2, 3, 4}, []float64{5, 6, 7, 8})))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("execute status %d", resp.StatusCode)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	raw, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	expo := string(raw)
	for _, name := range []string{"shmt_serve_requests_total", "shmt_serve_batches_total", "shmt_serve_batch_size"} {
		if !strings.Contains(expo, name) {
			t.Fatalf("exposition missing %s", name)
		}
	}
}

// TestHTTP429OnOverflow: with the dispatcher wedged and the admission queue
// full, the next request is shed with 429 + Retry-After instead of queueing.
func TestHTTP429OnOverflow(t *testing.T) {
	be := &fakeBackend{gate: make(chan struct{})}
	srv := New(be, Config{MaxBatch: 1, MaxLinger: time.Millisecond, QueueDepth: 1, RetryAfter: 2 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func() (*http.Response, error) {
		return http.Post(ts.URL+"/v1/execute", "application/json",
			strings.NewReader(execBody([]float64{1, 2, 3, 4}, []float64{5, 6, 7, 8})))
	}
	// One request wedges the dispatcher at the gate, one fills the queue slot.
	inflight := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func() {
			if resp, err := post(); err == nil {
				resp.Body.Close()
			}
			inflight <- struct{}{}
		}()
	}
	// Retry until both are in place and an overflow request gets shed (the
	// two goroutines race the dispatcher, so poll rather than sleep-and-hope).
	// Poll requests carry a short deadline: one may win the queue slot before
	// the wedge request does, and must not hang behind the gated dispatcher —
	// it times out, and its expired entry keeps the queue full for the next
	// poll.
	pollBody := `{"op":"add","timeout_ms":100,"inputs":[{"rows":2,"cols":2,"data":[1,2,3,4]},{"rows":2,"cols":2,"data":[5,6,7,8]}]}`
	var got *http.Response
	for i := 0; i < 200; i++ {
		resp, err := http.Post(ts.URL+"/v1/execute", "application/json", strings.NewReader(pollBody))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			got = resp
			break
		}
		resp.Body.Close()
		time.Sleep(5 * time.Millisecond)
	}
	if got == nil {
		t.Fatal("no overflow request was shed with 429")
	}
	got.Body.Close()
	if got.Header.Get("Retry-After") != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", got.Header.Get("Retry-After"))
	}

	close(be.gate)
	<-inflight
	<-inflight
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPDrainingRefusesExecute: after Shutdown, execute answers 503 with a
// Retry-After hint.
func TestHTTPDrainingRefusesExecute(t *testing.T) {
	be := &fakeBackend{}
	srv := New(be, Config{MaxBatch: 1, MaxLinger: time.Millisecond, RetryAfter: 3 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/v1/execute", "application/json",
		strings.NewReader(execBody([]float64{1, 2, 3, 4}, []float64{5, 6, 7, 8})))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", resp.Header.Get("Retry-After"))
	}
}
