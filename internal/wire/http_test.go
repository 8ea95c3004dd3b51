package wire

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// chunked hides a reader's length, so the request goes out with no
// Content-Length and only the MaxBytesReader can stop it.
type chunked struct{ io.Reader }

func TestReadRequestLimits(t *testing.T) {
	const body = `{"op":"add","inputs":[{"rows":1,"cols":2,"data":[1,2]}]}`
	for name, tc := range map[string]struct {
		body   io.Reader
		limit  int64
		status int // 0: accepted
	}{
		"fits":                  {strings.NewReader(body), int64(len(body)), 0},
		"fits, chunked":         {chunked{strings.NewReader(body)}, int64(len(body)), 0},
		"declares too much":     {strings.NewReader(body), int64(len(body)) - 1, http.StatusRequestEntityTooLarge},
		"sends too much":        {chunked{strings.NewReader(body)}, int64(len(body)) - 1, http.StatusRequestEntityTooLarge},
		"malformed":             {strings.NewReader(`{"op":`), 1 << 10, http.StatusBadRequest},
		"trailing bytes in cap": {strings.NewReader(body + "x"), 1 << 10, http.StatusBadRequest},
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/execute", tc.body)
		req, err := readRequest(httptest.NewRecorder(), r, tc.limit)
		switch {
		case tc.status == 0 && (err != nil || req.Op != "add"):
			t.Errorf("%s: %+v, %v", name, req, err)
		case tc.status != 0 && (err == nil || StatusOf(err) != tc.status):
			t.Errorf("%s: error %v maps to %d, want %d", name, err, StatusOf(err), tc.status)
		}
	}
}

// TestReadBodyRefusesADeclaredGiant: a body that declares more than
// MaxBodyBytes is answered for without one byte of it being read.
func TestReadBodyRefusesADeclaredGiant(t *testing.T) {
	r := httptest.NewRequest(http.MethodPost, "/v1/execute", panicReader{})
	r.ContentLength = MaxBodyBytes + 1
	if _, err := ReadBody(httptest.NewRecorder(), r); StatusOf(err) != http.StatusRequestEntityTooLarge {
		t.Fatalf("error %v", err)
	}
	if _, err := ReadRequest(httptest.NewRecorder(), r); StatusOf(err) != http.StatusRequestEntityTooLarge {
		t.Fatalf("error %v", err)
	}
}

type panicReader struct{}

func (panicReader) Read([]byte) (int, error) { panic("the body was read") }

// TestHugeBufferIsNotKept: a buffer beyond maxPooledBytes does not go back on
// the free list, so one huge request pins nothing.
func TestHugeBufferIsNotKept(t *testing.T) {
	drainBuffers()
	huge := new(bytes.Buffer)
	huge.Grow(maxPooledBytes + 1)
	putBuffer(huge)
	if kept := drainBuffers(); len(kept) != 0 {
		t.Fatalf("free list kept %d buffers, one of %d bytes", len(kept), huge.Cap())
	}
	small := bytes.NewBufferString("left over, in a buffer of some two thousand bytes")
	small.Grow(2000)
	putBuffer(small)
	if got := getBuffer(2000); got != small || got.Len() != 0 {
		t.Fatalf("a small buffer did not come back empty: %p %p %d", got, small, got.Len())
	}
}

// onList reports whether buf is on the free list of body buffers, leaving the
// list as it found it.
func onList(buf *bytes.Buffer) (found bool) {
	for _, kept := range drainBuffers() {
		found = found || kept == buf
		buffers.Put(kept, kept.Cap())
	}
	return found
}

// lateCloser is a transport as net/http allows one to be: RoundTrip answers
// while the request body is still open, and closes it later.
type lateCloser struct{ open chan io.ReadCloser }

func (lc lateCloser) RoundTrip(r *http.Request) (*http.Response, error) {
	lc.open <- r.Body
	return &http.Response{StatusCode: http.StatusBadRequest, Body: http.NoBody, Request: r}, nil
}

// TestBodyIsHeldUntilTheTransportClosesIt: the buffer of a forwarded body goes
// back on the free list at the last of its caller's Release and every
// transport's Close, in whichever order they come, and once.
func TestBodyIsHeldUntilTheTransportClosesIt(t *testing.T) {
	drainBuffers()
	text := `{"op":"relu","inputs":[{"rows":1,"cols":2,"data":[1,-2]}]}`
	body, err := ReadBody(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/execute", strings.NewReader(text)))
	if err != nil {
		t.Fatal(err)
	}
	lc := lateCloser{open: make(chan io.ReadCloser, 2)} // one per attempt below
	client := &http.Client{Transport: lc}
	for attempt := 0; attempt < 2; attempt++ {
		hr, err := NewPost(context.Background(), "http://backend/v1/execute", body, 0)
		if err != nil {
			t.Fatal(err)
		}
		if resp, err := client.Do(hr); err != nil || resp.StatusCode != http.StatusBadRequest {
			t.Fatal(resp, err)
		}
	}
	first, second := <-lc.open, <-lc.open
	body.Release() // the handler returns; both transports still hold the body
	if onList(body.buf) {
		t.Fatal("the buffer was recycled under two open readers")
	}
	if sent, _ := io.ReadAll(first); string(sent) != text {
		t.Fatalf("the first attempt sends %q", sent)
	}
	first.Close()
	first.Close() // net/http may close a body more than once
	if onList(body.buf) {
		t.Fatal("the buffer was recycled under an open reader")
	}
	if sent, _ := io.ReadAll(second); string(sent) != text {
		t.Fatalf("the second attempt sends %q", sent)
	}
	second.Close()
	if !onList(body.buf) {
		t.Fatal("the last Close did not recycle the buffer")
	}
}

// TestEarlyReplyDoesNotFreeTheBody: a backend answers 503 without reading a
// megabyte body, so client.Do returns while the transport is still writing
// it; the failover attempt sends the same bytes from the same buffer, and the
// buffer is back on the list only when the first transport has let go of it
// too. (Under -race a buffer handed out early is a reported race with the
// write loop.)
func TestEarlyReplyDoesNotFreeTheBody(t *testing.T) {
	drainBuffers()
	text := `{"op":"relu","inputs":[{"rows":1,"cols":1,"data":[1]}],"pad":"` + strings.Repeat("x", 1<<20) + `"}`
	body, err := ReadBody(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/execute", strings.NewReader(text)))
	if err != nil {
		t.Fatal(err)
	}
	hasty := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Connection", "close")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer hasty.Close()
	got := make(chan string, 1) // the one request the second backend serves
	reader := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sent, _ := io.ReadAll(r.Body)
		got <- string(sent)
	}))
	defer reader.Close()
	for i, url := range []string{hasty.URL, reader.URL} {
		hr, err := NewPost(context.Background(), url, body, 0)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			if i == 0 {
				continue // the hasty backend may hang up mid-write: a failed attempt all the same
			}
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if sent := <-got; sent != text {
		t.Fatalf("the failover attempt sent %d bytes, not the body's %d", len(sent), len(text))
	}
	buf := body.buf
	body.Release()
	deadline := time.Now().Add(10 * time.Second)
	for !onList(buf) {
		if time.Now().After(deadline) {
			t.Fatalf("the buffer never came back: %d readers left", body.readers.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTimeout(t *testing.T) {
	const max = 30 * time.Second
	for ms, want := range map[int]time.Duration{
		0:           max,
		-5:          max,
		1:           time.Millisecond,
		29999:       29999 * time.Millisecond,
		30000:       max,
		30001:       max,
		math.MaxInt: max, // on 64 bits, times a million it would wrap to a negative duration
	} {
		if got := Timeout(ms, max); got != want {
			t.Errorf("Timeout(%d) = %v, want %v", ms, got, want)
		}
	}
}

// TestWriteResponse: a result is sent whole with its length; one JSON cannot
// carry is a 422 naming the op and the element, not a 200 with no body.
func TestWriteResponse(t *testing.T) {
	rec := httptest.NewRecorder()
	resp := Response{Output: Matrix{Rows: 1, Cols: 2, Data: []float64{1, 2}}, BatchSize: 1}
	if err := WriteResponse(rec, "add", &resp); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Length") != strconv.Itoa(rec.Body.Len()) ||
		!bytes.Equal(rec.Body.Bytes(), viaJSON(t, &resp)) {
		t.Fatalf("status %d, headers %v, body %s", rec.Code, rec.Header(), rec.Body)
	}

	rec = httptest.NewRecorder()
	resp.Output.Data[1] = math.Inf(-1)
	err := WriteResponse(rec, "log", &resp)
	if err == nil || rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, error %v", rec.Code, err)
	}
	if body := rec.Body.String(); !strings.Contains(body, `"error":"log: output element 1 is -Inf`) {
		t.Fatalf("body %s", body)
	}
}
