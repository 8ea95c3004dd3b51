package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"shmt"
	"shmt/internal/tensor"
	"shmt/internal/wire"
)

// The tests of who may return a served request's tensors to the free list,
// and when (DESIGN.md §11). They run a server whose onRelease hook fills every
// tensor with NaN the moment before it is recycled: whatever still reads a
// tensor after its release then computes or encodes a NaN, which comes back as
// a 422 or as a bit that differs from the in-process session's.

// lifeReq is a request as both sides see it: the body a client posts and the
// batch an in-process session runs.
type lifeReq struct {
	name  string
	body  []byte
	batch shmt.BatchRequest
}

func newLifeReq(rng *rand.Rand, op shmt.Op, rows, cols int) lifeReq {
	r := lifeReq{name: fmt.Sprintf("%s/%dx%d", op, rows, cols), batch: shmt.BatchRequest{Op: op}}
	wr := wire.Request{Op: op.String()}
	n := 1
	if op == shmt.OpAdd {
		n = 2
	}
	for k := 0; k < n; k++ {
		m := shmt.NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = math.Round(rng.NormFloat64()*1e4) / 1e2
		}
		r.batch.Inputs = append(r.batch.Inputs, m)
		wr.Inputs = append(wr.Inputs, wire.FromTensor(m))
	}
	r.body, _ = json.Marshal(&wr)
	return r
}

// lifeMix is n requests of mixed opcodes — two inputs, one, a halo opcode
// whose partitions are scattered back, a reduction that takes no destination
// — over sizes on both sides of several size classes.
func lifeMix(n int) []lifeReq {
	rng := rand.New(rand.NewSource(24))
	ops := []shmt.Op{shmt.OpAdd, shmt.OpRelu, shmt.OpSobel, shmt.OpReduceSum}
	sides := [][2]int{{17, 23}, {32, 32}, {33, 31}, {64, 64}, {48, 90}, {96, 80}, {128, 128}}
	reqs := make([]lifeReq, n)
	for i := range reqs {
		s := sides[(i/len(ops))%len(sides)]
		reqs[i] = newLifeReq(rng, ops[i%len(ops)], s[0], s[1])
	}
	return reqs
}

// poisonOnRelease makes srv fill a request's tensors with NaN before they are
// recycled, and counts the requests released.
func poisonOnRelease(srv *Server) *atomic.Int64 {
	var released atomic.Int64
	srv.onRelease = func(inputs []*tensor.Matrix, dst *tensor.Matrix) {
		released.Add(1)
		for _, m := range append(inputs, dst) {
			if m != nil {
				for i := range m.Data {
					m.Data[i] = math.NaN()
				}
			}
		}
	}
	return &released
}

// lifeSession is the configuration both sides run: no plan cache, so that a
// result is a function of its own request alone.
func lifeSession(t *testing.T, policy shmt.PolicyName) *shmt.Session {
	t.Helper()
	s, err := shmt.NewSession(shmt.Config{Seed: 1, TargetPartitions: 8, Policy: policy,
		PlanCache: shmt.PlanCacheConfig{Disabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// checkServed posts r and holds the reply to what ref computes in process,
// bit for bit. It reports on the calling goroutine's behalf with t.Error.
func checkServed(t *testing.T, url string, r lifeReq, ref *shmt.Session) {
	t.Helper()
	resp, err := http.Post(url+"/v1/execute", "application/json", bytes.NewReader(r.body))
	if err != nil {
		t.Error(r.name, err)
		return
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var got wire.Response
	if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &got) != nil {
		t.Errorf("%s: http %d: %.200s", r.name, resp.StatusCode, raw)
		return
	}
	want, err := ref.ExecuteBatch([]shmt.BatchRequest{r.batch})
	if err != nil {
		t.Error(r.name, err)
		return
	}
	out := want.Reports[0].Output
	if got.Output.Rows != out.Rows || got.Output.Cols != out.Cols || len(got.Output.Data) != out.Len() {
		t.Errorf("%s: served %dx%d with %d values, in process %dx%d", r.name, got.Output.Rows, got.Output.Cols, len(got.Output.Data), out.Rows, out.Cols)
		return
	}
	for i, x := range out.Data[:out.Len()] {
		if math.Float64bits(got.Output.Data[i]) != math.Float64bits(x) {
			t.Errorf("%s: element %d served as %v, in process %v", r.name, i, got.Output.Data[i], x)
			return
		}
	}
}

// TestConcurrentRequestsNeverReadReleasedTensors: 64 requests at once, every
// tensor poisoned on release. Solo rounds under the default policy, where a
// result depends on what shares its round; coalesced rounds on one device,
// where it does not.
func TestConcurrentRequestsNeverReadReleasedTensors(t *testing.T) {
	for name, tc := range map[string]struct {
		policy shmt.PolicyName
		cfg    Config
	}{
		"solo rounds, every device": {"", Config{MaxBatch: 1, QueueDepth: 64}},
		"coalesced rounds, one gpu": {shmt.PolicyGPUBaseline, Config{QueueDepth: 64}},
	} {
		t.Run(name, func(t *testing.T) {
			srv, ts := serverOn(t, lifeSession(t, tc.policy), tc.cfg)
			released := poisonOnRelease(srv)
			ref := lifeSession(t, tc.policy)
			reqs := lifeMix(64)
			var wg sync.WaitGroup
			for _, r := range reqs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					checkServed(t, ts.URL, r, ref)
				}()
			}
			wg.Wait()
			// A large reply is with its client before its handler has returned.
			waitFor(t, "every request to release its tensors", func() bool { return released.Load() == int64(len(reqs)) })
		})
	}
}

// wedgedOnce is a session whose first round does not start until release is
// closed.
type wedgedOnce struct {
	*shmt.Session
	once             sync.Once
	entered, release chan struct{}
}

func (w *wedgedOnce) ExecuteBatch(reqs []shmt.BatchRequest) (*shmt.BatchResult, error) {
	w.once.Do(func() {
		close(w.entered)
		<-w.release
	})
	return w.Session.ExecuteBatch(reqs)
}

// TestAbandonedRequestIsNeverRecycled: a request whose deadline passes while
// its round is wedged in the backend answers 504 and keeps its tensors — the
// round will still read them — while one refused at admission gives its back
// at once; the round then runs over the abandoned tensors beside the requests
// that follow, and those answer as the in-process session does.
func TestAbandonedRequestIsNeverRecycled(t *testing.T) {
	be := &wedgedOnce{Session: lifeSession(t, ""), entered: make(chan struct{}), release: make(chan struct{})}
	srv, ts := serverOn(t, be, Config{MaxBatch: 1, QueueDepth: 1})
	unwedge := sync.OnceFunc(func() { close(be.release) })
	t.Cleanup(unwedge) // before the server's drain, also when the test fails early
	released := poisonOnRelease(srv)
	ref := lifeSession(t, "")
	reqs := lifeMix(9)

	abandoned := make(chan int, 1) // the wedged request's status
	go func() {
		body := append(bytes.TrimSuffix(reqs[0].body, []byte("}")), `,"timeout_ms":150}`...)
		resp, err := http.Post(ts.URL+"/v1/execute", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			abandoned <- 0
			return
		}
		resp.Body.Close()
		abandoned <- resp.StatusCode
	}()
	<-be.entered

	queued := make(chan struct{})
	go func() {
		defer close(queued)
		checkServed(t, ts.URL, reqs[1], ref)
	}()
	waitFor(t, "the second request to queue behind the wedged round", func() bool { return srv.batcher.QueueLen() == 1 })
	if resp, body := post(t, ts.URL, string(reqs[2].body)); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("a request beyond the queue: http %d: %s", resp.StatusCode, body)
	}
	if n := released.Load(); n != 1 {
		t.Fatalf("%d requests released after one refusal at admission", n)
	}
	if code := <-abandoned; code != http.StatusGatewayTimeout {
		t.Fatalf("the wedged request answered %d", code)
	}
	if n := released.Load(); n != 1 {
		t.Fatalf("the abandoned request's tensors were released (%d releases) with its round still to run", n)
	}

	unwedge() // the round runs now, over tensors nobody waits for
	<-queued
	for _, r := range reqs[3:] {
		checkServed(t, ts.URL, r, ref)
	}
	waitFor(t, "every request but the abandoned one to release its tensors", func() bool { return released.Load() == int64(len(reqs)-1) })
}

// serverOn is an untraced server on be, listening.
func serverOn(t *testing.T, be Backend, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(be, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	return srv, ts
}

// discard is a ResponseWriter that keeps nothing of the reply.
type discard struct {
	h      http.Header
	status int
	n      int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) WriteHeader(code int)        { d.status = code }
func (d *discard) Write(b []byte) (int, error) { d.n += len(b); return len(b), nil }

// TestWarmRequestAllocatesNoPayload: once the free lists are warm, a request
// on any of serve_wire's three shapes — a dense 256×256 add (1 MB of inputs
// decoded, a 1.2 MB reply encoded), a 384×384 relu, a 512×512 reduce_sum
// (2 MB decoded, one number encoded) — costs the process under 64 KB of
// allocation.
func TestWarmRequestAllocatesNoPayload(t *testing.T) {
	sess, err := shmt.NewSession(shmt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	srv := New(sess, Config{})
	defer srv.Shutdown(context.Background())
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		r        lifeReq
		outElems int
	}{
		{newLifeReq(rng, shmt.OpAdd, 256, 256), 256 * 256},
		{newLifeReq(rng, shmt.OpRelu, 384, 384), 384 * 384},
		{newLifeReq(rng, shmt.OpReduceSum, 512, 512), 1},
	} {
		serve := func() {
			req, err := http.NewRequest(http.MethodPost, "/v1/execute", bytes.NewReader(tc.r.body))
			if err != nil {
				t.Fatal(err)
			}
			w := &discard{h: http.Header{}}
			srv.Handler().ServeHTTP(w, req)
			if w.status != http.StatusOK || w.n < 2*tc.outElems {
				t.Fatalf("%s: http %d, %d bytes", tc.r.name, w.status, w.n)
			}
		}
		for i := 0; i < 5; i++ {
			serve()
		}
		const n = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			serve()
		}
		runtime.ReadMemStats(&after)
		inBytes := 0
		for _, in := range tc.r.batch.Inputs {
			inBytes += 8 * len(in.Data)
		}
		if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 64<<10 {
			t.Errorf("a warm %s allocates %d bytes; its inputs alone are %d", tc.r.name, per, inBytes)
		}
	}
}

// BenchmarkServeRequest is one request through an in-process server — read,
// decode, round, encode — on serve_wire's three shapes, each about 2 MB of
// payload. TestWarmRequestAllocatesNoPayload holds its B/op under 64 KB on
// all three: what a request allocates does not grow with what it carries.
func BenchmarkServeRequest(b *testing.B) {
	sess, err := shmt.NewSession(shmt.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	srv := New(sess, Config{})
	defer srv.Shutdown(context.Background())
	rng := rand.New(rand.NewSource(3))
	for _, r := range []lifeReq{
		newLifeReq(rng, shmt.OpAdd, 256, 256),
		newLifeReq(rng, shmt.OpRelu, 384, 384),
		newLifeReq(rng, shmt.OpReduceSum, 512, 512),
	} {
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(r.body)))
			for i := 0; i < b.N; i++ {
				req, err := http.NewRequest(http.MethodPost, "/v1/execute", bytes.NewReader(r.body))
				if err != nil {
					b.Fatal(err)
				}
				w := &discard{h: http.Header{}}
				if srv.Handler().ServeHTTP(w, req); w.status != http.StatusOK {
					b.Fatalf("http %d", w.status)
				}
			}
		})
	}
}
