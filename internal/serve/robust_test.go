package serve

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"shmt"
	"shmt/internal/wire"
)

// realServer is an untraced server on a real session.
func realServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	sess, err := shmt.NewSession(shmt.Config{Seed: 1, TargetPartitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	srv := New(sess, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	return srv, ts
}

func post(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/execute", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

const goodAdd = `{"op":"add","inputs":[{"rows":2,"cols":2,"data":[1,2,3,4]},{"rows":2,"cols":2,"data":[5,6,7,8]}]}`

// TestNegativeDimensionsDoNotKillTheServer: rows=-2, cols=-2 with four values
// used to pass FromSlice's rows*cols check and panic tensor.NewMatrix on the
// dispatcher goroutine — the process exited. It is a 400 and the server goes
// on answering.
func TestNegativeDimensionsDoNotKillTheServer(t *testing.T) {
	_, ts := realServer(t, Config{MaxBatch: 1, MaxLinger: time.Millisecond})
	resp, body := post(t, ts.URL, `{"op":"add","inputs":[{"rows":-2,"cols":-2,"data":[1,2,3,4]},{"rows":-2,"cols":-2,"data":[1,2,3,4]}]}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "invalid dimensions -2x-2") {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp, body := post(t, ts.URL, goodAdd); resp.StatusCode != http.StatusOK {
		t.Fatalf("the next request: status %d: %s", resp.StatusCode, body)
	}
}

// TestNonFiniteOutputIs422: a result JSON cannot carry used to answer 200
// with an empty body (WriteHeader first, Encode's error dropped).
func TestNonFiniteOutputIs422(t *testing.T) {
	srv, ts := realServer(t, Config{MaxBatch: 1, MaxLinger: time.Millisecond, Tracing: true})
	for op, body := range map[string]string{
		"log":   `{"op":"log","inputs":[{"rows":2,"cols":2,"data":[-1,-2,-3,-4]}]}`,
		"rsqrt": `{"op":"rsqrt","inputs":[{"rows":2,"cols":2,"data":[0,0,0,0]}]}`,
		"add": `{"op":"add","inputs":[{"rows":2,"cols":2,"data":[1.7976931348623157e308,1,1,1]},` +
			`{"rows":2,"cols":2,"data":[1.7976931348623157e308,1,1,1]}]}`,
	} {
		resp, reply := post(t, ts.URL, body)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d: %q", op, resp.StatusCode, reply)
		}
		if !strings.Contains(reply, `"error":"`+op+`: output element 0 is `) {
			t.Fatalf("%s: reply %q does not name the op and the element", op, reply)
		}
		if last := srv.flight.Snapshot(false)[0]; last.Op != op || last.Status != "invalid" || last.Error == "" {
			t.Fatalf("%s: flight recorder has %+v", op, last)
		}
	}
	// A finite result says how long it is.
	resp, reply := post(t, ts.URL, goodAdd)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Length") != strconv.Itoa(len(reply)) {
		t.Fatalf("status %d, Content-Length %q for %d bytes", resp.StatusCode, resp.Header.Get("Content-Length"), len(reply))
	}
}

// TestMalformedVOPFailsAlone: a VOP the engine refuses (an empty input, a
// shape mismatch, the wrong arity) used to be a 500 for it and for every
// request the batcher had coalesced with it. It is a 400 at admission, while
// good requests that share the open round with it run and answer 200. The
// round is held open the way a server holds it — by an announced request —
// until every bad reply is in and both good requests have been gathered.
func TestMalformedVOPFailsAlone(t *testing.T) {
	srv, ts := realServer(t, Config{MaxBatch: 8, MaxLinger: neverLinger})
	hold := srv.batcher.Announce()
	defer hold.Release()

	type reply struct {
		resp *http.Response
		body string
	}
	good := make(chan reply, 2)
	for i := 0; i < cap(good); i++ {
		go func() {
			resp, body := post(t, ts.URL, goodAdd)
			good <- reply{resp, body}
		}()
	}
	bad := map[string]string{
		"empty input":    `{"op":"add","inputs":[{"rows":0,"cols":0,"data":[]}]}`,
		"arity":          `{"op":"add","inputs":[{"rows":1,"cols":1,"data":[1]}]}`,
		"shape mismatch": `{"op":"add","inputs":[{"rows":1,"cols":2,"data":[1,2]},{"rows":2,"cols":1,"data":[1,2]}]}`,
		"GEMM inner":     `{"op":"GEMM","inputs":[{"rows":1,"cols":2,"data":[1,2]},{"rows":1,"cols":2,"data":[1,2]}]}`,
	}
	var wg sync.WaitGroup
	for name, body := range bad {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp, reply := post(t, ts.URL, body); resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s: status %d: %s", name, resp.StatusCode, reply)
			}
		}()
	}
	wg.Wait()
	waitDispatched(t, srv.batcher, 2)
	hold.Release()

	for i := 0; i < cap(good); i++ {
		r := <-good
		if r.resp.StatusCode != http.StatusOK || r.resp.Header.Get("X-SHMT-Batch-Size") != "2" {
			t.Fatalf("a good request: status %d, batch size %q, want 200 in a round of 2: %s",
				r.resp.StatusCode, r.resp.Header.Get("X-SHMT-Batch-Size"), r.body)
		}
	}
}

// TestAnnouncementsDoNotLeak: every way a request can end before (or inside)
// Submit without being queued gives its announcement back. A leaked one would
// make every later round wait out MaxLinger, so afterwards a lone request
// must still flush at once — with a linger no test could wait out.
func TestAnnouncementsDoNotLeak(t *testing.T) {
	be := &fakeBackend{gate: make(chan struct{})}
	srv := New(be, Config{MaxBatch: 2, MaxLinger: neverLinger, QueueDepth: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	b := srv.batcher

	// One request wedges the dispatcher at the gate, one fills the queue, so
	// a well-formed request is shed with 429.
	held := make(chan int, 2)
	hold := func() {
		resp, _ := post(t, ts.URL, goodAdd)
		held <- resp.StatusCode
	}
	go hold()
	waitInFlight(t, b)
	go hold()
	waitQueued(t, b, 1)

	tooLarge := func() int {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/execute", strings.NewReader(goodAdd))
		if err != nil {
			t.Fatal(err)
		}
		req.ContentLength = wire.MaxBodyBytes + 1
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		return rec.Code
	}
	status := func(body string) func() int {
		return func() int {
			resp, _ := post(t, ts.URL, body)
			return resp.StatusCode
		}
	}
	// The client announces a long body, sends the start of it and hangs up.
	hangUp := func() int {
		conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_, err = io.WriteString(conn, "POST /v1/execute HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"+
			"Content-Length: 100000\r\n\r\n"+`{"op":"add","inputs":[{"rows":2,"cols":2,"data":[1,2`)
		if err != nil {
			t.Fatal(err)
		}
		return 0
	}
	const each = 170
	for _, kind := range []struct {
		name string
		do   func() int
		want int
	}{
		{"malformed JSON", status(`{not json`), http.StatusBadRequest},
		{"oversize", tooLarge, http.StatusRequestEntityTooLarge},
		{"bad arity", status(`{"op":"add","inputs":[{"rows":1,"cols":1,"data":[1]}]}`), http.StatusBadRequest},
		{"client closes mid-body", hangUp, 0},
		{"queue full", status(goodAdd), http.StatusTooManyRequests},
	} {
		for i := 0; i < each; i++ {
			if got := kind.do(); got != kind.want {
				t.Fatalf("%s: status %d, want %d", kind.name, got, kind.want)
			}
		}
	}
	// The hung-up handlers finish on the server's own time.
	waitArriving := func(when string) {
		t.Helper()
		waitFor(t, "arriving == 0 "+when+" (an announcement leaked)", func() bool { return b.Arriving() == 0 })
	}
	waitArriving("after 850 refused requests")
	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(page), `"arriving":0,`) {
		t.Fatalf("statusz does not report arriving 0: %s", page)
	}

	close(be.gate)
	for i := 0; i < cap(held); i++ {
		if code := <-held; code != http.StatusOK {
			t.Fatalf("held request %d: status %d", i, code)
		}
	}
	if resp, body := post(t, ts.URL, goodAdd); resp.StatusCode != http.StatusOK {
		t.Fatalf("the lone request afterwards: status %d: %s", resp.StatusCode, body)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000-5*each; i++ {
		if resp, body := post(t, ts.URL, goodAdd); resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("draining: status %d: %s", resp.StatusCode, body)
		}
	}
	waitArriving("after 150 draining refusals")
}

// TestBodyLimits: a body beyond wire.MaxBodyBytes is a 413 (answered from the
// declared length, nothing read), bytes after the closing brace and a field
// named twice are 400s, and a timeout_ms no duration can hold is clamped to
// the server's own maximum instead of wrapping around to "already expired".
func TestBodyLimits(t *testing.T) {
	be := &fakeBackend{}
	srv := New(be, Config{MaxBatch: 1, MaxLinger: time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/execute", strings.NewReader(goodAdd))
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	req.ContentLength = wire.MaxBodyBytes + 1
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "request body too large") {
		t.Fatalf("oversized body: status %d: %s", rec.Code, rec.Body)
	}

	for name, body := range map[string]string{
		"trailing bytes": goodAdd + " trailing garbage",
		"duplicate key":  strings.Replace(goodAdd, `{"op":"add",`, `{"op":"add","op":"sub",`, 1),
		"huge shape":     `{"op":"relu","inputs":[{"rows":20000,"cols":20000,"data":[1]}]}`,
	} {
		if resp, reply := post(t, ts.URL, body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d: %s", name, resp.StatusCode, reply)
		}
	}
	if n := len(be.requests()); n != 0 {
		t.Fatalf("%d refused requests reached the backend", n)
	}

	huge := strings.Replace(goodAdd, `{"op":"add",`, fmt.Sprintf(`{"timeout_ms":%d,"op":"add",`, int64(1)<<62), 1)
	if resp, reply := post(t, ts.URL, huge); resp.StatusCode != http.StatusOK {
		t.Fatalf("huge timeout_ms: status %d: %s", resp.StatusCode, reply)
	}
}
