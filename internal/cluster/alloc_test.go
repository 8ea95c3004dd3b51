package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"shmt"
	"shmt/internal/serve"
	"shmt/internal/wire"
)

// TestHeaderNamesAreCanonical: every header name the tiers set or read is
// written as http.CanonicalHeaderKey writes it, so that Header.Get and
// Header.Set use it as it is instead of canonicalising a copy per call.
func TestHeaderNamesAreCanonical(t *testing.T) {
	for _, h := range []string{
		serve.TraceHeader, serve.TenantHeader, serve.BatchSizeHeader, serve.DegradedHeader,
		serve.QuarantinedHeader, TenantHeader, BackendHeader, ScatterHeader,
	} {
		if c := http.CanonicalHeaderKey(h); c != h {
			t.Errorf("header %q is spelled %q in canonical form", h, c)
		}
	}
}

// sink is a client connection that keeps nothing: it counts the reply's bytes
// and has no ReadFrom.
type sink struct {
	h      http.Header
	status int
	n      int
}

func (s *sink) Header() http.Header         { return s.h }
func (s *sink) WriteHeader(code int)        { s.status = code }
func (s *sink) Write(b []byte) (int, error) { s.n += len(b); return len(b), nil }

// allocatedPerRequest is what the whole process — router, backends, the
// transport between them — allocates per request of body to h once warm, with
// the collector held off so that no pool drops what it holds mid-count. It is
// the least of three counts: goroutines an earlier test left behind allocate
// as they wind down.
func allocatedPerRequest(t *testing.T, h http.Handler, body []byte, check func(*sink)) uint64 {
	t.Helper()
	serveOne := func() {
		r, err := http.NewRequest(http.MethodPost, "/v1/execute", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		w := &sink{h: http.Header{}}
		h.ServeHTTP(w, r)
		check(w)
	}
	for i := 0; i < 5; i++ {
		serveOne()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	least := uint64(math.MaxUint64)
	for range 3 {
		const n = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			serveOne()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/n)
	}
	return least
}

// echoBackend answers every POST with the body it was sent, read into and
// written from a buffer it owns, so that what it allocates per request does
// not grow with the body.
func echoBackend(t *testing.T) string {
	t.Helper()
	var mu sync.Mutex
	buf := make([]byte, 2<<20)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		n, err := io.ReadFull(r.Body, buf[:r.ContentLength])
		if err != nil {
			wire.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		w.Header().Set("Content-Length", strconv.Itoa(n))
		w.WriteHeader(http.StatusOK)
		w.Write(buf[:n])
	}))
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://")
}

// TestProxyAllocatedBytesFlat: what the router allocates to proxy a request
// does not depend on how many bytes it carries, either way: the body goes to
// the backend and the reply comes back through recycled copy buffers.
func TestProxyAllocatedBytesFlat(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector makes sync.Pool drop Puts")
	}
	rt, _ := newTestRouter(t, RouterConfig{
		Seeds:            []string{echoBackend(t)},
		ScatterThreshold: -1,
		Pool:             PoolConfig{ProbeInterval: time.Hour},
	})
	per := map[int]uint64{}
	for _, size := range []int{1 << 10, 64 << 10, 1 << 20} {
		body := []byte(`{"op":"relu","inputs":[{"rows":1,"cols":1,"data":[1]}],"pad":"` +
			strings.Repeat("x", size) + `"}`)
		per[size] = allocatedPerRequest(t, rt.Handler(), body, func(w *sink) {
			if w.status != http.StatusOK || w.n != len(body) {
				t.Fatalf("%d-byte body: http %d, %d bytes relayed", len(body), w.status, w.n)
			}
		})
		t.Logf("%7d-byte body: %d bytes allocated per request", size, per[size])
	}
	for size, b := range per {
		if d := int64(b) - int64(per[1<<10]); d > 1<<10 || d < -1<<10 {
			t.Errorf("a %d-byte body allocates %d bytes per request, a 1 KiB body %d", size, b, per[1<<10])
		}
	}
}

// TestScatterIndexRecycled: the offsets of a warm scattered request — the
// index of the client's body and of every partition's reply — come from and
// go back to a free list, so the request allocates fewer bytes, router and
// backends together, than one 4-byte offset per element would take.
func TestScatterIndexRecycled(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector makes sync.Pool drop Puts")
	}
	rt, _ := newTestRouter(t, RouterConfig{
		Seeds:            []string{newSessionBackend(t), newSessionBackend(t)},
		ScatterThreshold: 1 << 16,
		MaxFanout:        2,
		Pool:             PoolConfig{ProbeInterval: time.Hour},
	})
	const side = 512
	body := scatterBody(side, 0)
	per := allocatedPerRequest(t, rt.Handler(), body, func(w *sink) {
		if w.status != http.StatusOK || w.h.Get(ScatterHeader) != "2" {
			t.Fatalf("http %d, scatter %q", w.status, w.h.Get(ScatterHeader))
		}
	})
	t.Logf("a warm scattered %d² relu allocates %d bytes", side, per)
	if per >= 4*side*side {
		t.Errorf("a warm scattered %d² relu allocates %d bytes, at least 4 per element", side, per)
	}
}

// scatterBody is a side×side relu whose element text depends on salt.
func scatterBody(side, salt int) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, `{"op":"relu","inputs":[{"rows":%d,"cols":%d,"data":[`, side, side)
	for i := 0; i < side*side; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		x := math.Sin(float64(i*(salt+1))) * math.Pow(10, float64(i%(salt+3)))
		b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
	}
	b.WriteString(`]}]}`)
	return []byte(b.String())
}

// TestConcurrentScattersKeepTheirOffsets: eight scattered requests at once,
// each of its own text, through one router and two backends, come back with
// the bits the same requests get proxied whole. Offsets go back to a free list
// shared by every request, so one released before WriteGathered has spliced
// its reply would be another request's index by the time it is read. The
// backends compute exactly, on the CPU, so that scattering changes no bit.
func TestConcurrentScattersKeepTheirOffsets(t *testing.T) {
	backends := []string{exactBackend(t), exactBackend(t)}
	cfg := RouterConfig{Seeds: backends, ScatterThreshold: 1 << 12, MaxFanout: 2,
		Pool: PoolConfig{ProbeInterval: time.Hour}}
	_, scattered := newTestRouter(t, cfg)
	cfg.ScatterThreshold = -1
	_, whole := newTestRouter(t, cfg)

	const n = 8
	bodies, want := make([][]byte, n), make([][]float64, n)
	for i := range bodies {
		bodies[i] = scatterBody(96+8*i, i)
		resp, got := postExecute(t, whole.URL, string(bodies[i]), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d whole: http %d: %.200s", i, resp.StatusCode, got)
		}
		want[i] = outputOf(t, got)
	}
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		errs := make([]error, n)
		for i := range bodies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = scatterMatches(scattered.URL, bodies[i], want[i])
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Errorf("round %d, request %d: %v", round, i, err)
			}
		}
	}
}

// exactBackend is a shmtserved stack that runs every VOP on the CPU.
func exactBackend(t *testing.T) string {
	t.Helper()
	sess, err := shmt.NewSession(shmt.Config{Policy: shmt.PolicyCPUOnly})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(sess, serve.Config{MaxLinger: time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown(context.Background())
		sess.Close()
	})
	return strings.TrimPrefix(ts.URL, "http://")
}

// scatterMatches posts body to the router at url and compares the scattered
// reply's output with want bit for bit.
func scatterMatches(url string, body []byte, want []float64) error {
	resp, err := http.Post(url+"/v1/execute", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get(ScatterHeader) != "2" {
		return fmt.Errorf("http %d, scatter %q: %.200s", resp.StatusCode, resp.Header.Get(ScatterHeader), got)
	}
	var out wire.Response
	if err := json.Unmarshal(got, &out); err != nil {
		return err
	}
	if len(out.Output.Data) != len(want) {
		return fmt.Errorf("%d elements, want %d", len(out.Output.Data), len(want))
	}
	for k, x := range out.Output.Data {
		if math.Float64bits(x) != math.Float64bits(want[k]) {
			return fmt.Errorf("element %d is %v, proxied whole %v", k, x, want[k])
		}
	}
	return nil
}

func outputOf(t *testing.T, reply []byte) []float64 {
	t.Helper()
	var out wire.Response
	if err := json.Unmarshal(reply, &out); err != nil {
		t.Fatal(err)
	}
	return out.Output.Data
}
