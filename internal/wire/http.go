package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"shmt/internal/core"
	"shmt/internal/tensor"
)

// Body buffers are recycled through a bounded free list (tensor.FreeList, the
// type that also holds a request's tensors), so a steady stream of tensors
// reads and encodes without allocating. A sync.Pool was measured in its place
// (DESIGN.md §11, "One recycler"): each buffer the collector drops from it is
// megabytes to allocate again, which cost 5 % more bytes per request on
// serve_wire and cluster_mixed in ten of ten pairs and spread alloc_mb_per_op
// wider from run to run than the 3 % the benchmark allows it to move. The
// price is memory the process keeps: a bounded number of buffers per size
// class, none above maxPooledBytes, so one huge request pins nothing.
const maxPooledBytes = tensor.MaxKeptBytes

var buffers tensor.FreeList[*bytes.Buffer]

// getBuffer returns an empty buffer with room for size bytes, or for
// maxPooledBytes of them: a larger body grows its buffer as it arrives.
func getBuffer(size int) *bytes.Buffer {
	buf, capacity := buffers.Get(min(max(size, bytes.MinRead), maxPooledBytes))
	if buf == nil {
		buf = buffers.Miss(capacity, newBuffer)
	}
	return buf
}

func newBuffer(capacity int) *bytes.Buffer {
	buf := new(bytes.Buffer)
	buf.Grow(capacity)
	return buf
}

func putBuffer(buf *bytes.Buffer) {
	buf.Reset()
	buffers.Put(buf, buf.Cap())
}

// fill reads r to its end into a buffer from the free list, sized first to
// length (the Content-Length, -1 when unknown) so that a body of known size is
// read into one allocation at most — of known size up to maxPooledBytes, that
// is: the length is the sender's claim, and a connection that declares 256 MiB
// and sends nothing must not reserve them. ReadFrom grows the buffer for the
// bytes of a larger body as they arrive.
func fill(r io.Reader, length int64) (*bytes.Buffer, error) {
	// ReadFrom wants MinRead spare bytes before it will see the EOF.
	buf := getBuffer(int(min(max(length, 0), maxPooledBytes)) + bytes.MinRead)
	if _, err := buf.ReadFrom(r); err != nil {
		putBuffer(buf)
		return nil, fmt.Errorf("read body: %w", err)
	}
	return buf, nil
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
	buf, err := fill(body, r.ContentLength)
	if err != nil {
		return nil, err
	}
	defer putBuffer(buf)
	return DecodeRequest(buf.Bytes())
}

// Body is a request body held as text, in a recycled buffer, for a caller
// that forwards it. An HTTP transport may still be sending a body after the
// reply has come back, and closes it when it is done with it — the one signal
// net/http documents for reusing a body — so a Body counts the readers handed
// out and not yet closed, and its buffer goes back to the free list at the
// caller's Release or the last Close, whichever comes last.
type Body struct {
	buf     *bytes.Buffer
	readers atomic.Int32 // open readers; -1 once released and recycled
}

// ReadBody reads a request body of at most MaxBodyBytes. The caller releases
// it.
func ReadBody(w http.ResponseWriter, r *http.Request) (*Body, error) {
	body, err := limitBody(w, r, MaxBodyBytes)
	if err != nil {
		return nil, err
	}
	buf, err := fill(body, r.ContentLength)
	if err != nil {
		return nil, err
	}
	return &Body{buf: buf}, nil
}

// Bytes is the body's text, valid until Release.
func (b *Body) Bytes() []byte { return b.buf.Bytes() }

// Release ends the caller's hold (and, from a reader's Close, that reader's).
// The caller's must follow the return of the last client.Do of a request
// NewPost built on this body: a transport asks GetBody for readers only
// within it.
func (b *Body) Release() {
	if b.readers.Add(-1) < 0 {
		putBuffer(b.buf)
	}
}

// bodyReader is one transport's read of a Body's text and NewPost's tail.
type bodyReader struct {
	body       *Body
	text, tail []byte      // what is left to send
	closed     atomic.Bool // net/http may close a body more than once
}

func (r *bodyReader) Read(p []byte) (int, error) {
	if len(r.text) == 0 {
		if len(r.tail) == 0 {
			return 0, io.EOF
		}
		r.text, r.tail = r.tail, nil
	}
	n := copy(p, r.text)
	r.text = r.text[n:]
	return n, nil
}

func (r *bodyReader) Close() error {
	if !r.closed.Swap(true) {
		r.body.Release()
	}
	return nil
}

// NewPost builds the POST to url of the request in body — a client's, or a
// partition of one — with timeout_ms as its last member when timeoutMs is
// positive. The body is only read, so the attempts of a failover share one
// copy.
func NewPost(ctx context.Context, url string, body *Body, timeoutMs int) (*http.Request, error) {
	text, tail := body.Bytes(), []byte(nil)
	if timeoutMs > 0 {
		text = text[:len(text)-1] // reopen the object
		tail = append(strconv.AppendInt([]byte(`,"timeout_ms":`), int64(timeoutMs), 10), '}')
	}
	getBody := func() (io.ReadCloser, error) {
		body.readers.Add(1)
		return &bodyReader{body: body, text: text, tail: tail}, nil
	}
	rc, _ := getBody()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, rc)
	if err != nil {
		rc.Close()
		return nil, err
	}
	// What NewRequest works out for a bytes.Reader: the length, and the means
	// to send the body again when a kept-alive connection turns out closed.
	req.ContentLength = int64(len(text) + len(tail))
	req.GetBody = getBody
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

// Reply is a backend's 200 to one partition, held as text in a recycled
// buffer: the output's shape and where its elements are.
type Reply struct {
	Rows, Cols int
	Data       Elements
	// MakespanSeconds is the backend's virtual makespan for the request.
	MakespanSeconds float64
	buf             *bytes.Buffer
}

// ReadReply reads and indexes a backend's 200 reply. The caller releases it.
func ReadReply(resp *http.Response) (*Reply, error) {
	buf, err := fill(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, err
	}
	rep, err := indexReply(buf.Bytes())
	if err != nil {
		putBuffer(buf)
		return nil, err
	}
	rep.buf = buf
	return &rep, nil
}

// Release recycles the reply's buffer and offsets; Data is dead afterwards. A
// nil reply has nothing to release.
func (r *Reply) Release() {
	if r != nil {
		putBuffer(r.buf)
		r.Data.release()
	}
}

// Part is one partition of a gathered output: its region of the output and
// the reply that holds it.
type Part struct {
	Region tensor.Region
	Reply  *Reply
}

// WriteGathered answers 200 with the rows×cols output that parts tile — in
// hlop.Regions' order: bands top to bottom, the tiles of a band left to right
// — and the accounting of a scattered request: one HLOP per partition, a batch
// of one. The output is never decoded: each partition's text is spliced into
// place, a band of whole rows in one copy, tiles row by row, and the bytes are
// the ones WriteResponse encodes for the gathered tensor.
func WriteGathered(w http.ResponseWriter, rows, cols int, parts []Part, makespanSeconds float64) {
	size := 128
	for _, p := range parts {
		size += p.Reply.buf.Len()
	}
	buf := getBuffer(size)
	defer putBuffer(buf)
	b := appendMatrixHead(append(buf.AvailableBuffer(), `{"output":`...), rows, cols)
	for i := 0; i < len(parts); {
		band := parts[i:]
		for n := range band {
			if band[n].Region.Row != band[0].Region.Row {
				band = band[:n]
				break
			}
		}
		if i > 0 {
			b = append(b, ',')
		}
		if len(band) == 1 {
			b = band[0].Reply.Data.AppendTo(b, 0, band[0].Reply.Data.Len())
		} else {
			for r := 0; r < band[0].Region.Height; r++ {
				for k, p := range band {
					if r > 0 || k > 0 {
						b = append(b, ',')
					}
					b = p.Reply.Data.AppendTo(b, r*p.Region.Width, (r+1)*p.Region.Width)
				}
			}
		}
		i += len(band)
	}
	buf.Write(append(b, ']'))
	// One HLOP per partition, a batch of one; ints and a finite float cannot
	// fail to encode.
	_ = appendTail(buf, &Response{HLOPs: len(parts), MakespanSeconds: makespanSeconds, BatchSize: 1})
	send(w, buf)
}

// appendTail ends a reply of which buf holds everything up to the end of the
// output's data: it closes the matrix and appends resp's accounting and
// annexes as encoding/json writes them. These few scalars are all that
// encoding/json still formats of a reply, and the backend's 200 and the
// router's gathered one both get them here, so the two cannot drift. An error
// leaves buf unfit to send.
func appendTail(buf *bytes.Buffer, resp *Response) error {
	buf.WriteByte('}')
	brace := buf.Len()
	err := json.NewEncoder(buf).Encode(&struct {
		HLOPs           int            `json:"hlops"`
		MakespanSeconds float64        `json:"makespan_seconds"`
		BatchSize       int            `json:"batch_size"`
		Degraded        *core.Degraded `json:"degraded,omitempty"`
		Trace           *Trace         `json:"trace,omitempty"`
	}{resp.HLOPs, resp.MakespanSeconds, resp.BatchSize, resp.Degraded, resp.Trace})
	if err != nil {
		return err
	}
	buf.Bytes()[brace] = ',' // the members continue the reply's object
	return nil
}

// send answers 200 with the reply buf holds.
func send(w http.ResponseWriter, buf *bytes.Buffer) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes()) // as in WriteJSON
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
// returns is the one it has already answered with. The bytes are the ones
// encoding/json writes for resp; the output's elements, which are all but a
// few dozen of them, are appendFloat's.
//
// A resp.Trace with EncodeStart set leaves with encode_seconds filled in and
// total_seconds extended by it.
func WriteResponse(w http.ResponseWriter, op string, resp *Response) error {
	data := resp.Output.Data
	if i := nonFinite(data); i >= 0 {
		err := fmt.Errorf("%s: output element %d is %v, which JSON cannot carry", op, i, data[i])
		WriteError(w, http.StatusUnprocessableEntity, err.Error())
		return err
	}
	// An element is at most maxFloatLen bytes and its comma. The reservation
	// stops at what the free list keeps: a large reply of short numbers fits
	// in less, and one that does not grows the buffer chunk by chunk below.
	buf := getBuffer(128 + len(data)*(maxFloatLen+1))
	defer putBuffer(buf)
	b := appendMatrixHead(append(buf.AvailableBuffer(), `{"output":`...), resp.Output.Rows, resp.Output.Cols)
	switch {
	case data == nil:
		b = append(b[:len(b)-1], "null"...)
	case len(data) == 0:
		b = append(b, ']')
	}
	buf.Write(b)
	for rest := data; len(rest) > 0; {
		chunk := rest[:min(len(rest), 4096)]
		rest = rest[len(chunk):]
		// Room for the whole chunk, so that no append moves b out of buf.
		buf.Grow(len(chunk)*(maxFloatLen+1) + floatRoom)
		b = buf.AvailableBuffer()
		for _, x := range chunk {
			b = append(appendFloat(b, x), ',')
		}
		buf.Write(b)
	}
	if len(data) > 0 {
		buf.Bytes()[buf.Len()-1] = ']' // the last comma
	}
	if t := resp.Trace; t != nil && !t.EncodeStart.IsZero() {
		t.Stages.Encode = time.Since(t.EncodeStart).Seconds()
		t.TotalSeconds += t.Stages.Encode
	}
	if err := appendTail(buf, resp); err != nil {
		WriteError(w, http.StatusUnprocessableEntity, err.Error())
		return err
	}
	send(w, buf)
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
