package wire

import (
	"bytes"
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
	drain := func() (n int) {
		for {
			select {
			case <-buffers:
				n++
			default:
				return n
			}
		}
	}
	drain()
	huge := new(bytes.Buffer)
	huge.Grow(maxPooledBytes + 1)
	putBuffer(huge)
	if n := drain(); n != 0 {
		t.Fatalf("free list kept %d buffers, one of %d bytes", n, huge.Cap())
	}
	small := bytes.NewBufferString("left over")
	putBuffer(small)
	if got := getBuffer(); got != small || got.Len() != 0 {
		t.Fatalf("a small buffer did not come back empty: %p %p %d", got, small, got.Len())
	}
}

func TestTimeout(t *testing.T) {
	const max = 30 * time.Second
	for ms, want := range map[int]time.Duration{
		0:             max,
		-5:            max,
		1:             time.Millisecond,
		29999:         29999 * time.Millisecond,
		30000:         max,
		30001:         max,
		math.MaxInt64: max, // times a million it would wrap to a negative duration
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
