package wire

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// The index is the decoder that converts nothing and remembers where things
// are: the same scanner over the same grammar with the same shape checks, that
// records the byte offset of every element of every data array.
// With it a router scatters a request as text. A partition's inputs are runs
// of the client's own tokens copied into a new body, and the gathered output
// is the backends' tokens copied into one reply; every backend writes the
// shortest text that reads back as the float it computed, which is what
// parsing and re-encoding that text produced, so the reply is the one the
// decode → gather → encode path wrote, byte for byte, and each backend parses
// exactly the numbers the client sent.

// Elements locates the elements of one data array in the body it was indexed
// from. at[k] is the offset of element k's token; the last entry, one more
// than there are elements, is the offset of the closing bracket. uint32 holds
// any of them: a body is at most MaxBodyBytes. The zero value is an array of
// no elements (data null or absent).
type Elements struct {
	body []byte
	at   []uint32
	list *[]uint32 // what at goes back to the free list in; nil when it came from none
}

// offsetLists recycles index offsets (IndexedRequest.Release, Reply.Release).
var offsetLists tensor.FreeList[*[]uint32]

// release returns e's offsets to the free list; e is dead afterwards.
func (e Elements) release() {
	if e.list != nil {
		*e.list = e.at[:0]
		offsetLists.Put(e.list, cap(e.at)*4)
	}
}

// Len is the number of elements.
func (e Elements) Len() int { return max(len(e.at)-1, 0) }

// AppendTo appends elements [i, j) to dst as the body holds them — the
// writer's tokens, null among them, with whatever stands between two of them
// — and nothing after the last.
func (e Elements) AppendTo(dst []byte, i, j int) []byte {
	text := e.body[e.at[i]:e.at[j]]
	// From the last token to the next one, or to the bracket, there is only
	// whitespace and at most one comma.
	n := len(text)
	for n > 0 && (text[n-1] == ',' || text[n-1] == ' ' || text[n-1] == '\t' || text[n-1] == '\r' || text[n-1] == '\n') {
		n--
	}
	return append(dst, text[:n]...)
}

// AppendRegion appends region reg of the cols-wide row-major matrix e holds,
// row-major: one copy when the region spans whole rows, one per row when it
// does not.
func (e Elements) AppendRegion(dst []byte, cols int, reg tensor.Region) []byte {
	if reg.Width == cols {
		return e.AppendTo(dst, reg.Row*cols, (reg.Row+reg.Height)*cols)
	}
	for r := 0; r < reg.Height; r++ {
		if r > 0 {
			dst = append(dst, ',')
		}
		i := (reg.Row+r)*cols + reg.Col
		dst = e.AppendTo(dst, i, i+reg.Width)
	}
	return dst
}

// regionBytes bounds what AppendRegion appends.
func (e Elements) regionBytes(cols int, reg tensor.Region) int {
	if reg.Width == cols {
		return int(e.at[(reg.Row+reg.Height)*cols] - e.at[reg.Row*cols])
	}
	n := 0
	for r := 0; r < reg.Height; r++ {
		i := (reg.Row+r)*cols + reg.Col
		n += int(e.at[i+reg.Width] - e.at[i])
	}
	return n
}

// offsets validates a data array and records where each element starts, in a
// slice from the free list sized for hint elements when the rest of the body
// could hold that many (as floats, it reserves nothing for a shape the body
// cannot back). It returns the element count.
func (s *scanner) offsets(hint int) (int, error) {
	if hint > (len(s.b)-s.i)/2 {
		hint = 0
	}
	list, capacity := offsetLists.Get((hint + 1) * 4)
	if list == nil {
		list = offsetLists.Miss(capacity, func(c int) *[]uint32 { at := make([]uint32, 0, c/4); return &at })
	}
	n, at, err := s.elements(nil, (*list)[:0])
	if err != nil {
		return 0, err
	}
	s.at, s.list = append(at, uint32(s.i-1)), list // elements consumed the bracket
	return n, nil
}

// IndexedRequest is a request decoded in all but its numbers — every Data nil
// — plus where in the body the text a scatter copies is.
type IndexedRequest struct {
	*Request
	// Data[k] locates the elements of Inputs[k].
	Data []Elements
	// attrs is the attrs value as the client wrote it, nil when it sent none.
	attrs []byte
}

// IndexRequest is the full validation that converts nothing: it accepts
// exactly the bodies DecodeRequest accepts, bar those DecodeRequest refuses
// for a literal of a data array beyond float64's range (only a conversion can
// see one), and reports the same opcode, shapes, attrs and timeout_ms. It is
// what a router runs, once, on a request it is about to scatter. The result
// aliases body.
func IndexRequest(body []byte) (*IndexedRequest, error) {
	if uint64(len(body)) > math.MaxUint32 {
		return nil, fmt.Errorf("wire: a %d-byte body is beyond the index", len(body))
	}
	s := scanner{b: body, index: true}
	req, err := s.request()
	if err != nil {
		return nil, err
	}
	return &IndexedRequest{Request: req, Data: s.data, attrs: s.attrsText}, nil
}

// Release returns the index's offsets to their free list: Data is dead
// afterwards, the partition bodies built from it are not.
func (r *IndexedRequest) Release() {
	for _, e := range r.Data {
		e.release()
	}
	r.Data = nil
}

// partitionBytes bounds what AppendPartition appends for regs.
func (r *IndexedRequest) partitionBytes(regs []tensor.Region) int {
	need := 64 + len(r.attrs)
	for k, reg := range regs {
		need += 64 + r.Data[k].regionBytes(r.Inputs[k].Cols, reg)
	}
	return need
}

// Partition is AppendPartition into a recycled buffer. The caller releases it.
func (r *IndexedRequest) Partition(op vop.Opcode, regs []tensor.Region) *Body {
	buf := getBuffer(r.partitionBytes(regs))
	buf.Write(r.AppendPartition(buf.AvailableBuffer(), op, regs))
	return &Body{buf: buf}
}

// AppendPartition appends the request that asks a backend for one partition
// of r: op over region regs[k] of input k, every element the client's own
// text, attrs as the client wrote them. It carries no timeout_ms; NewPost adds
// one per attempt.
func (r *IndexedRequest) AppendPartition(dst []byte, op vop.Opcode, regs []tensor.Region) []byte {
	dst = slices.Grow(dst, r.partitionBytes(regs))
	dst = append(dst, `{"op":"`...)
	dst = append(dst, op.String()...) // an identifier: nothing to escape
	dst = append(dst, `","inputs":[`...)
	for k, reg := range regs {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = appendMatrixHead(dst, reg.Height, reg.Width)
		dst = r.Data[k].AppendRegion(dst, r.Inputs[k].Cols, reg)
		dst = append(dst, "]}"...)
	}
	dst = append(dst, ']')
	if r.attrs != nil {
		dst = append(dst, `,"attrs":`...)
		dst = append(dst, r.attrs...)
	}
	return append(dst, '}')
}

// appendMatrixHead opens a matrix object up to and including the bracket of
// its data array.
func appendMatrixHead(dst []byte, rows, cols int) []byte {
	dst = append(dst, `{"rows":`...)
	dst = strconv.AppendInt(dst, int64(rows), 10)
	dst = append(dst, `,"cols":`...)
	dst = strconv.AppendInt(dst, int64(cols), 10)
	return append(dst, `,"data":[`...)
}

// indexReply validates a /v1/execute reply, locates the elements of its
// output matrix and reads its makespan_seconds, which a router composes into
// a scattered reply's. The other accounting fields and the degraded and
// trace annexes are validated as JSON and skipped.
func indexReply(body []byte) (Reply, error) {
	if uint64(len(body)) > math.MaxUint32 {
		return Reply{}, fmt.Errorf("wire: a %d-byte reply is beyond the index", len(body))
	}
	s := scanner{b: body, index: true}
	var out Matrix
	var makespan float64
	err := s.document(replyFields, func(field string) error {
		if field == "makespan_seconds" {
			var err error
			makespan, err = s.floatValue()
			return err
		}
		return s.matrix(&out, false)
	})
	if err != nil {
		return Reply{}, err
	}
	return Reply{Rows: out.Rows, Cols: out.Cols, Data: Elements{body: body, at: s.at, list: s.list},
		MakespanSeconds: makespan}, nil
}
