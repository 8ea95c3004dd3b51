package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
)

// Body buffers are recycled through a bounded free list, so a steady stream
// of equal-sized tensors reads and encodes without allocating. A sync.Pool was
// measured in its place (DESIGN.md, "Wire format"): each buffer the collector
// drops from it is megabytes to allocate again, which cost 5 % more bytes per
// request on serve_wire and cluster_mixed in ten of ten pairs and spread
// alloc_mb_per_op wider from run to run than the 3 % the benchmark allows it
// to move. The price is memory the process keeps: at most cap(buffers)
// buffers of at most maxPooledBytes each; a buffer that grew beyond that is
// not kept, so one huge request pins nothing.
const maxPooledBytes = 16 << 20

var buffers = make(chan *bytes.Buffer, 8)

func getBuffer() *bytes.Buffer {
	select {
	case buf := <-buffers:
		return buf
	default:
		return new(bytes.Buffer)
	}
}

func putBuffer(buf *bytes.Buffer) {
	if buf.Cap() > maxPooledBytes {
		return
	}
	buf.Reset()
	select {
	case buffers <- buf:
	default:
	}
}

// fill reads r to its end into buf, grown first to length (the
// Content-Length, -1 when unknown) so that a body of known size is read into
// one allocation at most.
func fill(buf *bytes.Buffer, r io.Reader, length int64) error {
	if length > 0 && length <= MaxBodyBytes {
		// ReadFrom wants MinRead spare bytes before it will see the EOF.
		buf.Grow(int(length) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return fmt.Errorf("read body: %w", err)
	}
	return nil
}

// limitBody caps r's body at limit bytes; a body that declares more is
// refused without being read.
func limitBody(w http.ResponseWriter, r *http.Request, limit int64) (io.Reader, error) {
	if r.ContentLength > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	return http.MaxBytesReader(w, r.Body, limit), nil
}

// ReadRequest reads and decodes a /v1/execute request of at most MaxBodyBytes.
// StatusOf maps its error to the reply's status.
func ReadRequest(w http.ResponseWriter, r *http.Request) (*Request, error) {
	return readRequest(w, r, MaxBodyBytes)
}

func readRequest(w http.ResponseWriter, r *http.Request, limit int64) (*Request, error) {
	body, err := limitBody(w, r, limit)
	if err != nil {
		return nil, err
	}
	buf := getBuffer()
	defer putBuffer(buf)
	if err := fill(buf, body, r.ContentLength); err != nil {
		return nil, err
	}
	return DecodeRequest(buf.Bytes())
}

// ReadBody reads a /v1/execute request body of at most MaxBodyBytes for a
// caller that forwards the bytes. The slice is the caller's to keep: an HTTP
// transport may still be sending it after the reply has come back, so it is
// never recycled.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := limitBody(w, r, MaxBodyBytes)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := fill(&buf, body, r.ContentLength); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ReadResponse reads and decodes a backend's 200 reply.
func ReadResponse(resp *http.Response) (*Response, error) {
	buf := getBuffer()
	defer putBuffer(buf)
	if err := fill(buf, resp.Body, resp.ContentLength); err != nil {
		return nil, err
	}
	return DecodeResponse(buf.Bytes())
}

// StatusOf is the status a request that failed to read or decode is answered
// with: 413 when it exceeded MaxBodyBytes, 400 otherwise.
func StatusOf(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// WriteJSON answers with v as JSON.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v) // the status is out; a dead client is the only failure left
}

// WriteError answers with {"error": msg}.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, Error{Error: msg})
}

// WriteResponse answers 200 with resp, encoded in full before the status
// line is written so that the reply carries its Content-Length and a result
// JSON cannot carry — a NaN or an infinity — is answered 422, naming op and
// the first such element, rather than 200 with an empty body. The error it
// returns is the one it has already answered with.
func WriteResponse(w http.ResponseWriter, op string, resp *Response) error {
	buf := getBuffer()
	defer putBuffer(buf)
	if err := json.NewEncoder(buf).Encode(resp); err != nil {
		if i := nonFinite(resp.Output.Data); i >= 0 {
			err = fmt.Errorf("%s: output element %d is %v, which JSON cannot carry", op, i, resp.Output.Data[i])
		}
		WriteError(w, http.StatusUnprocessableEntity, err.Error())
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes()) // as in WriteJSON
	return nil
}

// nonFinite returns the index of the first NaN or ±Inf in data, or -1.
func nonFinite(data []float64) int {
	for i, x := range data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return i
		}
	}
	return -1
}
