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

// TestPoisonRequestLosesNoBackend: the body that used to panic a backend's
// dispatcher — and, replayed on each ring replica by failover, the cluster —
// is a 400 that costs no backend and no failover; a request the router's peek
// lets through and the backend refuses is relayed as the backend's own 400,
// once.
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
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "invalid dimensions -2x-2") {
			t.Fatalf("poison: status %d: %s", resp.StatusCode, body)
		}
		resp, body = postExecute(t, ts.URL, oneInput, nil)
		if resp.StatusCode != http.StatusBadRequest || resp.Header.Get(BackendHeader) == "" || !strings.Contains(string(body), "wants 2 inputs") {
			t.Fatalf("arity: status %d via %q: %s", resp.StatusCode, resp.Header.Get(BackendHeader), body)
		}
	})
	if failovers != 0 {
		t.Fatalf("%d failovers counted for requests that are the client's fault", failovers)
	}
	if healthy := len(rt.pool.Healthy()); healthy != 2 {
		t.Fatalf("%d of 2 backends healthy afterwards", healthy)
	}
	if resp, body := postExecute(t, ts.URL, addBody(2), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("the next request: status %d: %s", resp.StatusCode, body)
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
