package cluster

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"shmt/internal/telemetry"
	"shmt/internal/wire"
)

// failoversDuring runs fn with telemetry on and returns how many failovers
// the router counted meanwhile.
func failoversDuring(fn func()) int64 {
	wasOn := telemetry.On()
	telemetry.Enable()
	defer func() {
		if !wasOn {
			telemetry.Disable()
		}
	}()
	before := telemetry.RouterFailovers.Value()
	fn()
	return telemetry.RouterFailovers.Value() - before
}

// dispatches is how many dispatch attempts the pool has made, over all
// backends.
func dispatches(p *Pool) (n int64) {
	for _, st := range p.Statuses() {
		n += st.Requests
	}
	return n
}

// faultsAfterHead are bodies with nothing wrong up to the first input's shape
// and something wrong after it, at side×side: what the router's head read lets
// through and the tier that converts the numbers must refuse.
func faultsAfterHead(side int) map[string]string {
	ok := addBody(side)
	return map[string]string{
		"a bad token in data": strings.Replace(ok, ",2,", ",x,", 1),
		"short data":          strings.Replace(ok, "[0,1,", "[0,", 1),
		"a bad second input":  ok[:len(ok)-3] + ",]}]}",
		"trailing bytes":      ok + " x",
		"a duplicate key":     strings.Replace(ok, `"data"`, `"rows":1,"data"`, 1),
	}
}

// TestPoisonRequestLosesNoBackend: the body that used to panic a backend's
// dispatcher — and, replayed on each ring replica by failover, the cluster —
// is a 400 that costs no backend and no failover; a request the router's head
// read lets through and the backend refuses — wrong arity, or any fault after
// the first input's shape — is relayed as the backend's own 400, after one
// dispatch, and moves no breaker.
func TestPoisonRequestLosesNoBackend(t *testing.T) {
	rt, ts := newTestRouter(t, RouterConfig{
		Seeds:            []string{newSessionBackend(t), newSessionBackend(t)},
		ScatterThreshold: -1,
		Pool:             PoolConfig{ProbeInterval: time.Hour},
	})
	const poison = `{"op":"add","inputs":[{"rows":-2,"cols":-2,"data":[1,2,3,4]},{"rows":-2,"cols":-2,"data":[1,2,3,4]}]}`
	const oneInput = `{"op":"add","inputs":[{"rows":1,"cols":2,"data":[1,2]}]}`
	failovers := failoversDuring(func() {
		resp, body := postExecute(t, ts.URL, poison, nil)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "invalid dimensions -2x-2") || dispatches(rt.pool) != 0 {
			t.Fatalf("poison: status %d after %d dispatches: %s", resp.StatusCode, dispatches(rt.pool), body)
		}
		resp, body = postExecute(t, ts.URL, oneInput, nil)
		if resp.StatusCode != http.StatusBadRequest || resp.Header.Get(BackendHeader) == "" || !strings.Contains(string(body), "wants 2 inputs") {
			t.Fatalf("arity: status %d via %q: %s", resp.StatusCode, resp.Header.Get(BackendHeader), body)
		}
		for name, bad := range faultsAfterHead(2) {
			before := dispatches(rt.pool)
			resp, body = postExecute(t, ts.URL, bad, nil)
			if resp.StatusCode != http.StatusBadRequest || resp.Header.Get(BackendHeader) == "" || !strings.Contains(string(body), "bad request body: wire: offset") {
				t.Fatalf("%s: status %d via %q: %s", name, resp.StatusCode, resp.Header.Get(BackendHeader), body)
			}
			if n := dispatches(rt.pool) - before; n != 1 {
				t.Fatalf("%s: %d dispatches for one refusal", name, n)
			}
		}
	})
	if failovers != 0 {
		t.Fatalf("%d failovers counted for requests that are the client's fault", failovers)
	}
	if healthy := len(rt.pool.Healthy()); healthy != 2 {
		t.Fatalf("%d of 2 backends healthy afterwards", healthy)
	}
	for _, st := range rt.pool.Statuses() {
		if st.Breaker != "closed" || st.ConsecFails != 0 || st.Opens != 0 {
			t.Fatalf("a client's fault moved a breaker: %+v", st)
		}
	}
	if resp, body := postExecute(t, ts.URL, addBody(2), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("the next request: status %d: %s", resp.StatusCode, body)
	}
}

// TestScatterFaultAfterHeadIsTheBackends400: at scatter size the same bodies
// are refused by the router's index — its one full scan — and fall through to
// the proxy path, so the client reads the canonical 400 from a backend, not a
// partial scatter and not a 502.
func TestScatterFaultAfterHeadIsTheBackends400(t *testing.T) {
	rt, ts := newTestRouter(t, RouterConfig{
		Seeds:            []string{newSessionBackend(t), newSessionBackend(t)},
		ScatterThreshold: 64,
		MaxFanout:        2,
		Pool:             PoolConfig{ProbeInterval: time.Hour},
	})
	if resp, body := postExecute(t, ts.URL, addBody(16), nil); resp.StatusCode != http.StatusOK || resp.Header.Get(ScatterHeader) == "" {
		t.Fatalf("the sound body: status %d, scatter %q: %s", resp.StatusCode, resp.Header.Get(ScatterHeader), body)
	}
	failovers := failoversDuring(func() {
		for name, bad := range faultsAfterHead(16) {
			before := dispatches(rt.pool)
			resp, body := postExecute(t, ts.URL, bad, nil)
			if resp.StatusCode != http.StatusBadRequest || resp.Header.Get(BackendHeader) == "" || resp.Header.Get(ScatterHeader) != "" ||
				!strings.Contains(string(body), "bad request body: wire: offset") {
				t.Fatalf("%s: status %d via %q, scatter %q: %s", name, resp.StatusCode, resp.Header.Get(BackendHeader), resp.Header.Get(ScatterHeader), body)
			}
			if n := dispatches(rt.pool) - before; n != 1 {
				t.Fatalf("%s: %d dispatches for one refusal", name, n)
			}
		}
	})
	if healthy := len(rt.pool.Healthy()); failovers != 0 || healthy != 2 {
		t.Fatalf("%d failovers, %d of 2 backends healthy afterwards", failovers, healthy)
	}
}

// TestRouterBodyLimit: a body that declares more than wire.MaxBodyBytes is a
// 413 from the router, unread, and no backend hears of it.
func TestRouterBodyLimit(t *testing.T) {
	fb := newFakeBackend(t)
	rt, _ := newTestRouter(t, RouterConfig{
		Seeds:            []string{fb.addr()},
		ScatterThreshold: -1,
		Pool:             PoolConfig{ProbeInterval: time.Hour},
	})
	req := httptest.NewRequest(http.MethodPost, "/v1/execute", strings.NewReader(addBody(2)))
	req.ContentLength = wire.MaxBodyBytes + 1
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if n := fb.requests.Load(); n != 0 {
		t.Fatalf("backend saw %d requests", n)
	}
}

// TestScatterNonFiniteIs422: a scattered VOP whose result JSON cannot carry
// is answered 422 through the router, as it is by a single backend — not 200
// with an empty body, and not a 502 blaming the backends.
func TestScatterNonFiniteIs422(t *testing.T) {
	rt, ts := newTestRouter(t, RouterConfig{
		Seeds:            []string{newSessionBackend(t), newSessionBackend(t)},
		ScatterThreshold: 64,
		MaxFanout:        2,
		Pool:             PoolConfig{ProbeInterval: time.Hour},
	})
	neg := make([]float64, 16*16)
	for i := range neg {
		neg[i] = -1 - float64(i)
	}
	data, _ := json.Marshal(neg)
	resp, body := postExecute(t, ts.URL, `{"op":"log","inputs":[{"rows":16,"cols":16,"data":`+string(data)+`}]}`, nil)
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), "log: output element 0 is NaN") {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if healthy := len(rt.pool.Healthy()); healthy != 2 {
		t.Fatalf("%d of 2 backends healthy afterwards", healthy)
	}
}

// TestRouteLogLineHasPeek: the router's request line says what reading the
// key cost it.
func TestRouteLogLineHasPeek(t *testing.T) {
	var buf bytes.Buffer
	fb := newFakeBackend(t)
	_, ts := newTestRouter(t, RouterConfig{
		Seeds:            []string{fb.addr()},
		ScatterThreshold: -1,
		Pool:             PoolConfig{ProbeInterval: time.Hour},
		Logger:           slog.New(slog.NewJSONHandler(&buf, nil)),
	})
	if resp, body := postExecute(t, ts.URL, addBody(2), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		var l map[string]any
		if json.Unmarshal([]byte(line), &l) == nil && l["msg"] == "route" {
			if ms, ok := l["peek_ms"].(float64); !ok || ms <= 0 || l["path"] != "proxy" {
				t.Fatalf("route line %v", l)
			}
			return
		}
	}
	t.Fatalf("no route line in:\n%s", buf.String())
}
