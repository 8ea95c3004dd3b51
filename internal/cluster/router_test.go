package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"shmt/internal/serve"
	"shmt/internal/wire"
)

// fakeBackend is a minimal shmtserved stand-in: /v1/execute computes "add"
// locally, /healthz follows the shmtserved status contract. Failure modes
// are switchable at runtime.
type fakeBackend struct {
	ts       *httptest.Server
	requests atomic.Int64
	fail     atomic.Bool // 500 every execute
	sick     atomic.Bool // 503 every healthz
}

func newFakeBackend(t *testing.T) *fakeBackend {
	t.Helper()
	fb := &fakeBackend{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/execute", func(w http.ResponseWriter, r *http.Request) {
		fb.requests.Add(1)
		if fb.fail.Load() {
			wire.WriteError(w, http.StatusInternalServerError, "injected failure")
			return
		}
		var req wire.Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Op != "add" || len(req.Inputs) != 2 {
			wire.WriteError(w, http.StatusBadRequest, "fake backend only adds")
			return
		}
		a, b := req.Inputs[0], req.Inputs[1]
		out := wire.Matrix{Rows: a.Rows, Cols: a.Cols, Data: make([]float64, len(a.Data))}
		for i := range a.Data {
			out.Data[i] = a.Data[i] + b.Data[i]
		}
		if id := r.Header.Get(serve.TraceHeader); id != "" {
			w.Header().Set(serve.TraceHeader, id)
		}
		wire.WriteJSON(w, http.StatusOK, wire.Response{Output: out, HLOPs: 1, BatchSize: 1})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		if fb.sick.Load() {
			wire.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		wire.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	fb.ts = httptest.NewServer(mux)
	t.Cleanup(fb.ts.Close)
	return fb
}

func (fb *fakeBackend) addr() string { return strings.TrimPrefix(fb.ts.URL, "http://") }

func newTestRouter(t *testing.T, cfg RouterConfig) (*Router, *httptest.Server) {
	t.Helper()
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		ts.Close()
		rt.pool.Close()
	})
	return rt, ts
}

func addBody(n int) string {
	a := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i)
	}
	j, _ := json.Marshal(a)
	return fmt.Sprintf(`{"op":"add","inputs":[{"rows":%d,"cols":%d,"data":%s},{"rows":%d,"cols":%d,"data":%s}]}`,
		n, n, j, n, n, j)
}

func postExecute(t *testing.T, url, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/execute", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestRouterProxyAffinity: the same key lands on the same backend every
// time — however the body orders its keys, and under whatever spelling of a
// tenant the sanitiser maps to the same name — the output is correct, and the
// router's trace ID round-trips.
func TestRouterProxyAffinity(t *testing.T) {
	b1, b2 := newFakeBackend(t), newFakeBackend(t)
	_, ts := newTestRouter(t, RouterConfig{
		Seeds:            []string{b1.addr(), b2.addr()},
		ScatterThreshold: -1,
		Pool:             PoolConfig{ProbeInterval: time.Hour},
	})

	var served string
	for i := 0; i < 8; i++ {
		resp, body := postExecute(t, ts.URL, addBody(2), map[string]string{
			TenantHeader:      "tenant-a",
			serve.TraceHeader: "trace-affinity-1",
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get(serve.TraceHeader); got != "trace-affinity-1" {
			t.Fatalf("trace ID not threaded: %q", got)
		}
		be := resp.Header.Get(BackendHeader)
		if be == "" {
			t.Fatal("no backend header")
		}
		if served == "" {
			served = be
		} else if served != be {
			t.Fatalf("same key moved backends: %s then %s", served, be)
		}
		var out wire.Response
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Output.Data[3] != 6 { // 3 + 3
			t.Fatalf("bad output: %v", out.Output.Data)
		}
	}
	if b1.requests.Load()+b2.requests.Load() != 8 {
		t.Fatalf("backends saw %d+%d requests, want 8 total", b1.requests.Load(), b2.requests.Load())
	}
	if b1.requests.Load() != 0 && b2.requests.Load() != 0 {
		t.Fatal("one key spread over both backends")
	}

	// The key is read from the head of the body; a body that makes the head
	// read scan further — data before the shape, op after inputs — has the same
	// key.
	const m = `{"data":[0,1,2,3],"cols":2,"rows":2}`
	for _, body := range []string{
		`{"op":"add","inputs":[` + m + `,` + m + `]}`,
		`{"inputs":[` + m + `,` + m + `],"timeout_ms":1000,"op":"add"}`,
	} {
		resp, raw := postExecute(t, ts.URL, body, map[string]string{TenantHeader: "tenant-a"})
		if be := resp.Header.Get(BackendHeader); resp.StatusCode != http.StatusOK || be != served {
			t.Fatalf("%s: status %d from %q, the key's backend is %s: %s", body, resp.StatusCode, be, served, raw)
		}
	}

	// A tenant name the sanitiser rejects is accounted to the default tenant
	// on both tiers, so it is placed as the default tenant: every rejected
	// spelling and no header at all share one backend.
	resp, _ := postExecute(t, ts.URL, addBody(2), nil)
	home := resp.Header.Get(BackendHeader)
	for _, spelling := range []string{"a b", "x/y", "tenant a", "t?", "(none)", "a,b", "semi;colon", strings.Repeat("x", 65)} {
		resp, raw := postExecute(t, ts.URL, addBody(2), map[string]string{TenantHeader: spelling})
		if be := resp.Header.Get(BackendHeader); resp.StatusCode != http.StatusOK || be != home {
			t.Fatalf("tenant %q: status %d from %q, the default tenant's backend is %s: %s", spelling, resp.StatusCode, be, home, raw)
		}
	}
}

// TestRouterFailover: when a key's backend starts failing, the request
// retries on the replica and still succeeds; the repeat offender's breaker
// opens and subsequent picks avoid it.
func TestRouterFailover(t *testing.T) {
	b1, b2 := newFakeBackend(t), newFakeBackend(t)
	byAddr := map[string]*fakeBackend{b1.addr(): b1, b2.addr(): b2}
	rt, ts := newTestRouter(t, RouterConfig{
		Seeds:            []string{b1.addr(), b2.addr()},
		ScatterThreshold: -1,
		Pool: PoolConfig{
			ProbeInterval: time.Hour, // breaker driven by dispatch failures only
			Breaker:       BreakerConfig{Threshold: 2, Cooldown: time.Hour},
		},
	})

	resp, body := postExecute(t, ts.URL, addBody(2), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup: status %d: %s", resp.StatusCode, body)
	}
	owner := resp.Header.Get(BackendHeader)
	byAddr[owner].fail.Store(true)

	for i := 0; i < 3; i++ {
		resp, body = postExecute(t, ts.URL, addBody(2), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("failover request %d: status %d: %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get(BackendHeader); got == owner {
			t.Fatalf("request %d served by the failing backend", i)
		}
	}
	quar := rt.Pool().Quarantined()
	if len(quar) != 1 || quar[0] != owner {
		t.Fatalf("quarantined = %v, want [%s]", quar, owner)
	}
	// With the breaker open, picks skip the offender entirely: no new
	// requests land on it.
	before := byAddr[owner].requests.Load()
	for i := 0; i < 3; i++ {
		resp, _ = postExecute(t, ts.URL, addBody(2), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-quarantine request %d: status %d", i, resp.StatusCode)
		}
	}
	if got := byAddr[owner].requests.Load(); got != before {
		t.Fatalf("quarantined backend still receiving traffic (%d new requests)", got-before)
	}
}

// TestRouterRegister: a router with no seeds is unavailable (a 503 with
// Retry-After, like every 503 on both tiers); a backend registering over
// HTTP brings it to ok, idempotently.
func TestRouterRegister(t *testing.T) {
	fb := newFakeBackend(t)
	rt, ts := newTestRouter(t, RouterConfig{
		ScatterThreshold: -1,
		Pool:             PoolConfig{ProbeInterval: time.Hour},
	})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty fleet healthz = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("unavailable healthz missing Retry-After")
	}

	for i := 0; i < 2; i++ { // twice: registration is idempotent
		resp, err = http.Post(ts.URL+"/v1/register", "application/json",
			strings.NewReader(fmt.Sprintf(`{"addr":%q}`, fb.addr())))
		if err != nil {
			t.Fatal(err)
		}
		var reg registerResponse
		if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !reg.OK || reg.Backends != 1 {
			t.Fatalf("register attempt %d: status %d, resp %+v", i, resp.StatusCode, reg)
		}
	}
	if rt.Pool().Len() != 1 {
		t.Fatalf("pool size %d after idempotent registration", rt.Pool().Len())
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h routerHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" || h.Healthy != 1 {
		t.Fatalf("healthz after register: %d %+v", resp.StatusCode, h)
	}

	if resp, body := postExecute(t, ts.URL, addBody(2), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("execute after register: %d: %s", resp.StatusCode, body)
	}
}

// TestRouterRejectsBadRequests: malformed bodies and unknown ops answer 400
// without touching any backend.
func TestRouterRejectsBadRequests(t *testing.T) {
	fb := newFakeBackend(t)
	_, ts := newTestRouter(t, RouterConfig{
		Seeds:            []string{fb.addr()},
		ScatterThreshold: -1,
		Pool:             PoolConfig{ProbeInterval: time.Hour},
	})
	for _, body := range []string{
		`{not json`,
		`{"op":"frobnicate","inputs":[{"rows":1,"cols":1,"data":[1]}]}`,
		`{"op":"add","inputs":[]}`,
	} {
		resp, _ := postExecute(t, ts.URL, body, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	if fb.requests.Load() != 0 {
		t.Fatalf("backend saw %d requests for invalid bodies", fb.requests.Load())
	}
}

// TestRouterDrain: after Shutdown the router answers 503 draining on both
// the execute and health endpoints.
func TestRouterDrain(t *testing.T) {
	fb := newFakeBackend(t)
	rt, ts := newTestRouter(t, RouterConfig{
		Seeds:            []string{fb.addr()},
		ScatterThreshold: -1,
		Pool:             PoolConfig{ProbeInterval: time.Hour},
	})
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, _ := postExecute(t, ts.URL, addBody(2), nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("execute while draining = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining response missing Retry-After")
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h routerHealth
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("healthz while draining: %d %+v", hresp.StatusCode, h)
	}
	// Load balancers keying off /healthz need the same back-off hint the
	// execute path gives; a bare 503 reads as "dead", not "draining".
	if hresp.Header.Get("Retry-After") == "" {
		t.Fatal("draining healthz missing Retry-After")
	}
}

// TestPoolProbeLifecycle: a backend that goes sick is quarantined by the
// prober, and re-admitted — through a successful half-open probe — once it
// recovers.
func TestPoolProbeLifecycle(t *testing.T) {
	fb := newFakeBackend(t)
	pool, err := NewPool(PoolConfig{
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  time.Second,
		Breaker:       BreakerConfig{Threshold: 2, Cooldown: 30 * time.Millisecond},
	}, []string{fb.addr()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	fb.sick.Store(true)
	waitFor(t, time.Second, func() bool { return len(pool.Quarantined()) == 1 })

	fb.sick.Store(false)
	waitFor(t, 2*time.Second, func() bool { return len(pool.Quarantined()) == 0 })
	if len(pool.Healthy()) != 1 {
		t.Fatal("recovered backend not healthy")
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// TestRouterStatusz: the snapshot lists every backend with its breaker
// state.
func TestRouterStatusz(t *testing.T) {
	b1, b2 := newFakeBackend(t), newFakeBackend(t)
	_, ts := newTestRouter(t, RouterConfig{
		Seeds:            []string{b1.addr(), b2.addr()},
		ScatterThreshold: -1,
		Pool:             PoolConfig{ProbeInterval: time.Hour},
	})
	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st routerStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Service != "shmtrouterd" || len(st.Backends) != 2 {
		t.Fatalf("statusz: %+v", st)
	}
	for _, b := range st.Backends {
		if b.Breaker != "closed" {
			t.Fatalf("backend %s breaker %q at startup", b.Addr, b.Breaker)
		}
	}
}
