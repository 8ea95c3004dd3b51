package cluster

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"shmt/internal/telemetry"
	"shmt/internal/vop"
	"shmt/internal/wire"
)

// slowBackend is a backend stand-in that records each execute request's wire
// timeout_ms and tenant header, then stalls until the client gives up (or the
// configured delay elapses). It lets timeout tests assert both sides of the
// contract: the wall-clock bound and the hint forwarded to the backend.
type slowBackend struct {
	ts    *httptest.Server
	delay time.Duration

	mu       sync.Mutex
	timeouts []int
	tenants  []string
}

func newSlowBackend(t *testing.T, delay time.Duration) *slowBackend {
	t.Helper()
	sb := &slowBackend{delay: delay}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/execute", func(w http.ResponseWriter, r *http.Request) {
		var req wire.Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			wire.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		sb.mu.Lock()
		sb.timeouts = append(sb.timeouts, req.TimeoutMs)
		sb.tenants = append(sb.tenants, r.Header.Get(TenantHeader))
		sb.mu.Unlock()
		select {
		case <-time.After(sb.delay):
		case <-r.Context().Done():
			return
		}
		out := req.Inputs[0]
		wire.WriteJSON(w, http.StatusOK, wire.Response{Output: out, HLOPs: 1, BatchSize: 1})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		wire.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	sb.ts = httptest.NewServer(mux)
	t.Cleanup(sb.ts.Close)
	return sb
}

func (sb *slowBackend) addr() string { return strings.TrimPrefix(sb.ts.URL, "http://") }

func (sb *slowBackend) wireTimeouts() []int {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return append([]int(nil), sb.timeouts...)
}

func (sb *slowBackend) tenantHeaders() []string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return append([]string(nil), sb.tenants...)
}

// TestShouldScatterBoundary pins the scatter decision at and around the
// threshold, including the dimensions whose rows*cols product would overflow
// a 32-bit int — exactly the shapes scatter exists for.
func TestShouldScatterBoundary(t *testing.T) {
	b1, b2 := newFakeBackend(t), newFakeBackend(t)
	rt, _ := newTestRouter(t, RouterConfig{
		Seeds:            []string{b1.addr(), b2.addr()},
		ScatterThreshold: 64,
		Pool:             PoolConfig{ProbeInterval: time.Hour},
	})

	cases := []struct {
		name       string
		op         vop.Opcode
		rows, cols int
		want       bool
	}{
		{"at threshold", vop.OpAdd, 8, 8, true},
		{"one below", vop.OpAdd, 7, 9, false},
		{"above", vop.OpAdd, 9, 8, true},
		// 1<<20 squared is 1<<40: the int32 product wraps to 0 and would
		// silently refuse to scatter the largest inputs on 32-bit builds.
		{"int32 overflow", vop.OpAdd, 1 << 20, 1 << 20, true},
		{"max dims", vop.OpAdd, math.MaxInt32, math.MaxInt32, true},
		{"negative rows", vop.OpAdd, -8, 8, false},
		{"negative cols", vop.OpAdd, 8, -8, false},
		{"halo op ineligible", vop.OpStencil, 64, 64, false},
	}
	for _, c := range cases {
		if got := rt.shouldScatter(c.op, c.rows, c.cols); got != c.want {
			t.Errorf("%s: shouldScatter(%v, %d, %d) = %v, want %v",
				c.name, c.op, c.rows, c.cols, got, c.want)
		}
	}

	// With one healthy backend, whole-VOP proxying is strictly cheaper.
	solo, _ := newTestRouter(t, RouterConfig{
		Seeds:            []string{b1.addr()},
		ScatterThreshold: 64,
		Pool:             PoolConfig{ProbeInterval: time.Hour},
	})
	if solo.shouldScatter(vop.OpAdd, 64, 64) {
		t.Error("single-backend fleet must not scatter")
	}

	// Negative threshold disables scatter outright.
	off, _ := newTestRouter(t, RouterConfig{
		Seeds:            []string{b1.addr(), b2.addr()},
		ScatterThreshold: -1,
		Pool:             PoolConfig{ProbeInterval: time.Hour},
	})
	if off.shouldScatter(vop.OpAdd, 1<<16, 1<<16) {
		t.Error("ScatterThreshold < 0 must disable scatter")
	}
}

// outcomesDuring runs fn with telemetry on and returns how many routed
// requests the router counted meanwhile, by outcome.
func outcomesDuring(fn func()) map[string]float64 {
	wasOn := telemetry.On()
	telemetry.Enable()
	defer func() {
		if !wasOn {
			telemetry.Disable()
		}
	}()
	before := telemetry.Default.Snapshot()
	fn()
	out := map[string]float64{}
	for k, v := range telemetry.Default.Snapshot().Delta(before) {
		if o, ok := strings.CutPrefix(k, `shmt_router_requests_total{outcome="`); ok {
			out[strings.TrimSuffix(o, `"}`)] = v
		}
	}
	return out
}

// TestScatterHonorsClientTimeout: a scattered request's timeout_ms must bound
// the whole scatter-gather wall clock and be forwarded (tightened) to each
// partition dispatch — not silently replaced by the router's 30s default.
// The expired request is a 504 counted as a timeout, as shmtserved counts it.
func TestScatterHonorsClientTimeout(t *testing.T) {
	s1, s2 := newSlowBackend(t, 2*time.Second), newSlowBackend(t, 2*time.Second)
	_, ts := newTestRouter(t, RouterConfig{
		Seeds:            []string{s1.addr(), s2.addr()},
		ScatterThreshold: 4, // a 2x2 first input scatters
		MaxFanout:        2,
		Pool:             PoolConfig{ProbeInterval: time.Hour},
	})

	body := strings.Replace(addBody(2), `{"op":"add"`, `{"op":"add","timeout_ms":100`, 1)
	var resp *http.Response
	var out []byte
	var elapsed time.Duration
	outcomes := outcomesDuring(func() {
		start := time.Now()
		resp, out = postExecute(t, ts.URL, body, nil)
		elapsed = time.Since(start)
	})

	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504 from the expired scatter deadline", resp.StatusCode, out)
	}
	if elapsed >= 1500*time.Millisecond {
		t.Fatalf("scatter took %v against a 100ms client timeout — timeout_ms ignored", elapsed)
	}
	if outcomes["timeout"] != 1 || outcomes["error"] != 0 {
		t.Fatalf("router outcomes %v, want one timeout and no error", outcomes)
	}
	wire := append(s1.wireTimeouts(), s2.wireTimeouts()...)
	if len(wire) == 0 {
		t.Fatal("no partition reached a backend")
	}
	for i, ms := range wire {
		if ms < 1 || ms > 100 {
			t.Fatalf("partition %d forwarded timeout_ms %d, want in (0, 100]", i, ms)
		}
	}
}

// TestScatterFailsOverFromHungBackend: BackendTimeout bounds one dispatch, not
// the scatter, so a partition whose backend hangs times out there and still
// has time to land on a healthy one — when the client names no timeout and
// when it names one longer than a dispatch. The expired dispatch indicts only
// the backend that hung.
func TestScatterFailsOverFromHungBackend(t *testing.T) {
	for name, field := range map[string]string{
		"no timeout_ms":         "",
		"timeout_ms above ours": `,"timeout_ms":5000`,
	} {
		hung, good := newSlowBackend(t, time.Minute), newFakeBackend(t)
		rt, ts := newTestRouter(t, RouterConfig{
			Seeds:            []string{hung.addr(), good.addr()},
			ScatterThreshold: 1024,
			MaxFanout:        2,
			BackendTimeout:   300 * time.Millisecond,
			Pool:             PoolConfig{ProbeInterval: time.Hour, Breaker: BreakerConfig{Threshold: 1, Cooldown: time.Minute}},
		})
		body := strings.Replace(addBody(64), `{"op":"add"`, `{"op":"add"`+field, 1)
		resp, out := postExecute(t, ts.URL, body, nil)
		if resp.StatusCode != http.StatusOK || resp.Header.Get(ScatterHeader) != "2" {
			t.Fatalf("%s: status %d, scatter %q: %.200s", name, resp.StatusCode, resp.Header.Get(ScatterHeader), out)
		}
		if len(hung.wireTimeouts()) == 0 {
			t.Fatalf("%s: the hung backend was never tried", name)
		}
		if quar := rt.pool.Quarantined(); len(quar) != 1 || quar[0] != hung.addr() {
			t.Fatalf("%s: quarantined %v, want only the hung backend %s", name, quar, hung.addr())
		}
	}
}

// TestPostPartitionDerivesTimeoutFromContext: a partition dispatch must
// tighten its round-trip bound to the caller's context deadline and stamp the
// tightened value on the wire, so backends stop working when the client will
// no longer wait.
func TestPostPartitionDerivesTimeoutFromContext(t *testing.T) {
	sb := newSlowBackend(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	body, err := wire.ReadBody(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/execute",
		strings.NewReader(`{"op":"relu","inputs":[{"rows":2,"cols":2,"data":[1,2,3,4]}]}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer body.Release()
	reply, err := postPartition(ctx, http.DefaultClient, &Backend{addr: sb.addr(), base: sb.ts.URL}, body, "trace-ctx-1", 30*time.Second)
	if err != nil {
		t.Fatalf("postPartition: %v", err)
	}
	defer reply.Release()
	if reply.Rows != 2 || reply.Cols != 2 || reply.Data.Len() != 4 {
		t.Fatalf("reply is %dx%d with %d elements", reply.Rows, reply.Cols, reply.Data.Len())
	}
	wire := sb.wireTimeouts()
	if len(wire) != 1 {
		t.Fatalf("backend saw %d requests, want 1", len(wire))
	}
	if wire[0] < 1 || wire[0] > 50 {
		t.Fatalf("wire timeout_ms %d, want in [1, 50] (derived from the 50ms context)", wire[0])
	}
}

// TestProxyCountsCanceledClient: a client that leaves while its request is
// proxied is counted canceled, as shmtserved counts it, not as an error.
func TestProxyCountsCanceledClient(t *testing.T) {
	sb := newSlowBackend(t, time.Minute)
	_, ts := newTestRouter(t, RouterConfig{
		Seeds:            []string{sb.addr()},
		ScatterThreshold: -1,
		Pool:             PoolConfig{ProbeInterval: time.Hour},
	})
	outcomes := outcomesDuring(func() {
		base := telemetry.Default.Snapshot()
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/execute", strings.NewReader(addBody(2)))
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
			done <- err
		}()
		for len(sb.wireTimeouts()) == 0 { // until the request reaches the backend
			select {
			case err := <-done:
				t.Fatalf("request ended before reaching the backend: %v", err)
			case <-time.After(time.Millisecond):
			}
		}
		cancel()
		<-done
		// The router's handler counts the outcome as it returns.
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			d := telemetry.Default.Snapshot().Delta(base)
			if d[`shmt_router_requests_total{outcome="canceled"}`]+d[`shmt_router_requests_total{outcome="error"}`] > 0 {
				break
			}
		}
	})
	if outcomes["canceled"] != 1 || outcomes["error"] != 0 {
		t.Fatalf("router outcomes %v, want one canceled and no error", outcomes)
	}
}

// TestRouterForwardsTenantHeader: the proxy path must carry X-SHMT-Tenant to
// the backend (admission queues key on it) and relay the backend's echo.
func TestRouterForwardsTenantHeader(t *testing.T) {
	sb := newSlowBackend(t, 0)
	_, ts := newTestRouter(t, RouterConfig{
		Seeds:            []string{sb.addr()},
		ScatterThreshold: -1,
		Pool:             PoolConfig{ProbeInterval: time.Hour},
	})
	resp, body := postExecute(t, ts.URL, addBody(2), map[string]string{TenantHeader: "acme"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	hdrs := sb.tenantHeaders()
	if len(hdrs) != 1 || hdrs[0] != "acme" {
		t.Fatalf("backend saw tenant headers %v, want [acme]", hdrs)
	}
}

// TestRouterTenantLimit: a tenant over its in-flight cap is shed with 429 +
// Retry-After before any backend is touched, while other tenants proceed.
func TestRouterTenantLimit(t *testing.T) {
	sb := newSlowBackend(t, 300*time.Millisecond)
	_, ts := newTestRouter(t, RouterConfig{
		Seeds:            []string{sb.addr()},
		ScatterThreshold: -1,
		TenantLimits:     map[string]int{"capped": 1},
		Pool:             PoolConfig{ProbeInterval: time.Hour},
	})

	const n = 4
	codes := make(chan int, n)
	retryAfter := make(chan string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postExecute(t, ts.URL, addBody(2), map[string]string{TenantHeader: "capped"})
			codes <- resp.StatusCode
			retryAfter <- resp.Header.Get("Retry-After")
		}()
	}
	wg.Wait()
	close(codes)
	close(retryAfter)

	var ok, shed int
	for code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Fatalf("unexpected status %d", code)
		}
	}
	if ok < 1 || shed < 1 {
		t.Fatalf("got %d OK / %d shed of %d concurrent capped requests, want at least one of each", ok, shed, n)
	}
	sawHint := false
	for ra := range retryAfter {
		if ra != "" {
			sawHint = true
		}
	}
	if !sawHint {
		t.Fatal("no shed response carried Retry-After")
	}

	// An uncapped tenant is untouched by capped's limit even while capped's
	// request is still in flight.
	var inflight sync.WaitGroup
	inflight.Add(1)
	go func() {
		defer inflight.Done()
		postExecute(t, ts.URL, addBody(2), map[string]string{TenantHeader: "capped"})
	}()
	time.Sleep(50 * time.Millisecond) // let capped occupy its one slot
	resp, body := postExecute(t, ts.URL, addBody(2), map[string]string{TenantHeader: "premium"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("uncapped tenant got %d while capped was in flight: %s", resp.StatusCode, body)
	}
	inflight.Wait()
}
