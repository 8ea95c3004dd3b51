package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"strconv"
	"unicode/utf8"

	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// The decoder's contract, pinned by the differential fuzz targets: for every
// body in which no object names a schema field twice, DecodeRequest accepts
// exactly what json.Unmarshal into Request accepts and yields the same values
// — unknown keys skipped, keys matched case-insensitively, null leaving a
// field zero, string escapes honoured, 2.0 and 1e2 refused for the integer
// fields, 1e999 refused everywhere — provided every input's rows×cols is
// non-negative and equals its element count (what tensor.FromSlice would
// refuse one step later is refused here, before anything is allocated for
// it). It is narrower than the handlers it replaces in three documented ways:
// a schema field named twice in one object is an error (json.Unmarshal keeps
// the last), so is any byte but whitespace after the closing brace (the
// backend's json.Decoder used to let it through), and so are more inputs than
// any opcode takes or more than maxAttrs attrs (no VOP has a use for them, and
// each costs the decoder more memory than the bytes that name it).

// ErrDuplicateKey is wrapped by the error for a schema field named twice.
var ErrDuplicateKey = errors.New("duplicate key")

// errTooMany is wrapped by the error for an inputs array or an attrs object
// with more members than a request can use.
var errTooMany = errors.New("too many")

// errHead ends a head read — everything PeekRequest reports has been read —
// and does not leave the scanner.
var errHead = errors.New("wire: head complete")

// maxDepth is encoding/json's nesting limit, kept so that the two accept the
// same bodies (and so that skipping an unknown key's value cannot recurse
// without bound).
const maxDepth = 10000

// maxInputs is the most inputs any opcode takes; maxAttrs is well beyond the
// attrs any opcode reads.
var maxInputs = func() (n int) {
	for _, op := range vop.All() {
		n = max(n, op.NumInputs())
	}
	return n
}()

const maxAttrs = 64

var (
	requestFields = []string{"op", "inputs", "attrs", "timeout_ms"}
	matrixFields  = []string{"rows", "cols", "data"}
	replyFields   = []string{"output", "makespan_seconds"}
)

// DecodeRequest decodes a /v1/execute request body. Nothing in the result
// aliases body; its inputs' tensors come from the free list Release returns
// them to.
func DecodeRequest(body []byte) (*Request, error) {
	s := scanner{b: body}
	return s.request()
}

// PeekRequest reads the head of a request: the opcode and the first input's
// rows and cols, which is what placing a request takes. It is DecodeRequest's
// scanner — same grammar, same key matching, same duplicate rule — stopped the
// moment it has read both, so a body that names op, rows and cols before data
// (every encoder that writes the schema in order) costs its first few dozen
// bytes; when a body does not, the scan carries on through the data arrays in
// its way, validating them without converting a number, until it has. It
// refuses what it read and found wrong — a body malformed up to that point, a
// negative or overflowing first shape — and has no opinion on the bytes after:
// those are validated once, by whoever converts them (DecodeRequest at the
// backend, IndexRequest before a scatter). The result holds Op and at most one
// input, its Data nil.
func PeekRequest(body []byte) (*Request, error) {
	s := scanner{b: body, head: true}
	req, err := s.request()
	if err != nil {
		return nil, err
	}
	return &Request{Op: req.Op, Inputs: req.Inputs[:min(len(req.Inputs), 1)]}, nil
}

// request parses the document as a /v1/execute request; on a head read, as
// much of it as errHead left parsed.
func (s *scanner) request() (*Request, error) {
	req := new(Request)
	haveInputs := false
	err := s.document(requestFields, func(field string) (err error) {
		switch field {
		case "op":
			req.Op, err = s.stringValue()
			s.haveOp = true
		case "inputs":
			req.Inputs, err = s.matrices()
			req.tensors = s.tensors
			haveInputs = true
		case "attrs":
			start := s.i
			req.Attrs, err = s.attrs()
			s.attrsText = s.b[start:s.i]
		case "timeout_ms":
			req.TimeoutMs, err = s.intValue()
		}
		if err == nil && s.head && s.haveOp && haveInputs {
			err = errHead
		}
		return err
	})
	if err != nil && !errors.Is(err, errHead) {
		req.Release() // the inputs converted before the fault
		return nil, err
	}
	return req, nil
}

// scanner walks one JSON document. Every method leaves i on the first byte it
// did not consume.
type scanner struct {
	b     []byte
	i     int
	depth int
	index bool // convert no number; record where the elements of every data array are
	head  bool // convert no number; end in errHead once op and the first input's shape are read

	haveOp bool // head: the op key has been read

	at        []uint32         // index: the data array of the matrix parsed last
	list      *[]uint32        // index: the free-list entry at came in
	tensors   []*tensor.Matrix // convert: the tensor each input's data went into, in order
	data      []Elements       // index: the data array of every input, in order
	attrsText []byte           // a request's attrs value as written, nil when absent
}

// converts reports whether data arrays are converted as well as validated.
func (s *scanner) converts() bool { return !s.head && !s.index }

func (s *scanner) errf(format string, args ...any) error {
	return fmt.Errorf("wire: offset %d: "+format, append([]any{s.i}, args...)...)
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// eat consumes c if it is the next byte.
func (s *scanner) eat(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// literal consumes word if the input continues with it.
func (s *scanner) literal(word string) bool {
	if len(s.b)-s.i >= len(word) && string(s.b[s.i:s.i+len(word)]) == word {
		s.i += len(word)
		return true
	}
	return false
}

// open consumes c, which starts an object or an array.
func (s *scanner) open(c byte, what string) error {
	if !s.eat(c) {
		return s.errf("%s: expected %q", what, c)
	}
	if s.depth++; s.depth > maxDepth {
		return s.errf("exceeded max depth")
	}
	return nil
}

// more is called after an element of a container closed by end: it reports
// whether another element follows.
func (s *scanner) more(end byte) (bool, error) {
	s.ws()
	if s.eat(',') {
		s.ws()
		return true, nil
	}
	if s.eat(end) {
		s.depth--
		return false, nil
	}
	return false, s.errf("expected ',' or %q", end)
}

// document parses the whole body as one object of the given fields (or
// null), with nothing but whitespace around it.
func (s *scanner) document(fields []string, value func(field string) error) error {
	s.ws()
	if !s.literal("null") {
		if err := s.object(fields, value); err != nil {
			return err
		}
	}
	if s.ws(); s.i < len(s.b) {
		return s.errf("unexpected %q after the top-level value", s.b[s.i])
	}
	return nil
}

// object parses an object, calling value(field) with the scanner on the value
// of each key that names one of fields and skipping the values of all other
// keys.
func (s *scanner) object(fields []string, value func(field string) error) error {
	var seen uint
	return s.objectOf(func(key string) error {
		f := fieldIndex(key, fields)
		if f < 0 {
			return s.skipValue()
		}
		if seen&(1<<f) != 0 {
			return s.errf("%w %q", ErrDuplicateKey, fields[f])
		}
		seen |= 1 << f
		return value(fields[f])
	})
}

// objectOf parses an object of arbitrary keys, calling value(key) with the
// scanner on each key's value.
func (s *scanner) objectOf(value func(key string) error) error {
	if err := s.open('{', "object"); err != nil {
		return err
	}
	if s.ws(); s.eat('}') {
		s.depth--
		return nil
	}
	for {
		key, err := s.str()
		if err != nil {
			return err
		}
		if s.ws(); !s.eat(':') {
			return s.errf("expected ':' after key %q", key)
		}
		s.ws()
		if err := value(key); err != nil {
			return err
		}
		if more, err := s.more('}'); !more {
			return err
		}
	}
}

// fieldIndex matches key against the field names as encoding/json does: an
// exact match, else a match under simple case folding, where the Kelvin sign
// folds to k and the long s to s.
func fieldIndex(key string, fields []string) int {
	for f, name := range fields {
		if key == name {
			return f
		}
	}
	for f, name := range fields {
		if foldEqual(key, name) {
			return f
		}
	}
	return -1
}

// foldEqual reports whether key folds to name, which is lower-case ASCII.
func foldEqual(key, name string) bool {
	n := 0
	for _, r := range key {
		switch {
		case 'A' <= r && r <= 'Z':
			r += 'a' - 'A'
		case r == '\u212a': // Kelvin sign
			r = 'k'
		case r == '\u017f': // long s
			r = 's'
		}
		if n >= len(name) || rune(name[n]) != r {
			return false
		}
		n++
	}
	return n == len(name)
}

// stringValue parses a string field: a string, or null as "".
func (s *scanner) stringValue() (string, error) {
	if s.literal("null") {
		return "", nil
	}
	return s.str()
}

// str parses a string.
func (s *scanner) str() (string, error) {
	start := s.i
	plain, err := s.skipString()
	if err != nil {
		return "", err
	}
	if plain {
		return string(s.b[start+1 : s.i-1]), nil
	}
	// Escapes and non-ASCII bytes are rare enough in an opcode or a key to
	// leave to encoding/json, which also replaces invalid UTF-8 as it always
	// did.
	var out string
	if err := json.Unmarshal(s.b[start:s.i], &out); err != nil {
		return "", err
	}
	return out, nil
}

// skipString validates and consumes a string; plain reports that it holds
// neither an escape nor a non-ASCII byte.
func (s *scanner) skipString() (plain bool, err error) {
	if !s.eat('"') {
		return false, s.errf("expected a string")
	}
	plain = true
	for s.i < len(s.b) {
		c := s.b[s.i]
		s.i++
		switch {
		case c == '"':
			return plain, nil
		case c < 0x20:
			s.i--
			return false, s.errf("control character in string")
		case c >= utf8.RuneSelf:
			plain = false
		case c == '\\':
			plain = false
			if s.i >= len(s.b) {
				return false, s.errf("unterminated string")
			}
			esc := s.b[s.i]
			s.i++
			switch esc {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					if s.i >= len(s.b) || !isHex(s.b[s.i]) {
						return false, s.errf("bad \\u escape")
					}
					s.i++
				}
			default:
				s.i--
				return false, s.errf("bad escape %q", esc)
			}
		}
	}
	return false, s.errf("unterminated string")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digitsEnd returns the index of the first byte of b at or after i that is not
// a digit, testing eight bytes at a step. XOR with '0' maps the digits, and
// only them, to 0–9; adding 0x76 to the low seven bits of a lane carries into
// its top bit exactly when they hold 10 or more, the lane's own top bit covers
// 0x80 and up, and no sum carries out of its lane — so the mask has the top bit
// of every lane that is not a digit, and its lowest set bit is the first.
func digitsEnd(b []byte, i int) int {
	const (
		zeros = 0x3030303030303030
		low7  = 0x7f7f7f7f7f7f7f7f
		add   = 0x7676767676767676
		top   = 0x8080808080808080
	)
	for ; i+8 <= len(b); i += 8 {
		x := binary.LittleEndian.Uint64(b[i:]) ^ zeros
		if notDigit := (x&low7 + add | x) & top; notDigit != 0 {
			return i + bits.TrailingZeros64(notDigit)>>3
		}
	}
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// numberEnd returns the end of the token of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, that starts at b[i]; or, when
// there is none, the offset that breaks the grammar and what was missing there.
func numberEnd(b []byte, i int) (end int, missing string) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digitsEnd(b, i+1)
	default:
		return i, "a number"
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || !isDigit(b[i]) {
			return i, "a digit after the decimal point"
		}
		i = digitsEnd(b, i+1)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return i, "a digit in the exponent"
		}
		i = digitsEnd(b, i+1)
	}
	return i, ""
}

// skipNumber validates and consumes one number token and returns it.
func (s *scanner) skipNumber() ([]byte, error) {
	start := s.i
	end, missing := numberEnd(s.b, start)
	if s.i = end; missing != "" {
		return nil, s.errf("expected %s", missing)
	}
	return s.b[start:end], nil
}

// skipValue validates and consumes one JSON value of any shape.
func (s *scanner) skipValue() error {
	if s.i >= len(s.b) {
		return s.errf("unexpected end of input")
	}
	switch c := s.b[s.i]; c {
	case '{':
		return s.object(nil, nil)
	case '[':
		return s.array(s.skipValue)
	case '"':
		_, err := s.skipString()
		return err
	case 't', 'f', 'n':
		if s.literal("true") || s.literal("false") || s.literal("null") {
			return nil
		}
		return s.errf("invalid literal")
	default:
		_, err := s.skipNumber()
		return err
	}
}

// array parses an array, calling element with the scanner on each element.
func (s *scanner) array(element func() error) error {
	if err := s.open('[', "array"); err != nil {
		return err
	}
	if s.ws(); s.eat(']') {
		s.depth--
		return nil
	}
	for {
		if err := element(); err != nil {
			return err
		}
		if more, err := s.more(']'); !more {
			return err
		}
	}
}

// intValue parses an integer field: a number token that strconv reads as an
// int (so 2.0 and 1e2 are refused, as encoding/json refuses them), or null.
func (s *scanner) intValue() (int, error) {
	if s.literal("null") {
		return 0, nil
	}
	tok, err := s.skipNumber()
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(string(tok))
	if err != nil {
		return 0, s.errf("%q is not an integer", tok)
	}
	return n, nil
}

// floatValue parses a number with strconv.ParseFloat — the conversion
// encoding/json uses, so values are bit-identical to what it produced — or
// null as 0.
func (s *scanner) floatValue() (float64, error) {
	if s.literal("null") {
		return 0, nil
	}
	tok, err := s.skipNumber()
	if err != nil {
		return 0, err
	}
	x, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, s.errf("%q: %w", tok, strconv.ErrRange)
	}
	return x, nil
}

// attrs parses the attrs object (or null): string keys, number values.
func (s *scanner) attrs() (map[string]float64, error) {
	if s.literal("null") {
		return nil, nil
	}
	m := map[string]float64{}
	err := s.objectOf(func(key string) error {
		if _, dup := m[key]; dup {
			return s.errf("%w %q", ErrDuplicateKey, key)
		}
		if len(m) == maxAttrs {
			return s.errf("%w attrs: more than %d", errTooMany, maxAttrs)
		}
		x, err := s.floatValue()
		m[key] = x
		return err
	})
	return m, err
}

// matrices parses the inputs array (or null). On a head read that already has
// the opcode, the first input's shape ends the read (see matrix).
func (s *scanner) matrices() ([]Matrix, error) {
	if s.literal("null") {
		return nil, nil
	}
	ms := make([]Matrix, 0, maxInputs)
	if s.converts() {
		s.tensors = make([]*tensor.Matrix, 0, maxInputs)
	}
	err := s.array(func() error {
		if len(ms) == maxInputs {
			return s.errf("%w inputs: no opcode takes more than %d", errTooMany, maxInputs)
		}
		ms = append(ms, Matrix{})
		stop := s.head && s.haveOp && len(ms) == 1
		if s.converts() {
			s.tensors = append(s.tensors, nil)
		}
		err := s.matrix(&ms[len(ms)-1], stop)
		if s.index {
			s.data = append(s.data, Elements{body: s.b, at: s.at, list: s.list})
		}
		return err
	})
	return ms, err
}

// matrix parses one matrix object (or null, the zero matrix) and checks its
// shape: rows and cols non-negative, rows×cols equal to the element count.
// Data is reserved once, at rows×cols, and only when that many elements can
// fit in the bytes that remain. With stop set it ends in errHead as soon as it
// has read rows and cols and found them a shape, and the shape of the data
// array if that came first.
func (s *scanner) matrix(m *Matrix, stop bool) error {
	s.at, s.list = nil, nil
	if s.literal("null") {
		return nil
	}
	n := 0        // elements of data
	dataAt := -1  // offset of a data array that came before rows and cols
	haveDims := 0 // rows and cols seen so far
	haveData := false
	err := s.object(matrixFields, func(field string) (err error) {
		switch field {
		case "rows":
			m.Rows, err = s.intValue()
			haveDims++
		case "cols":
			m.Cols, err = s.intValue()
			haveDims++
		case "data":
			haveData = true
			if s.literal("null") {
				return nil
			}
			if haveDims == 2 && s.converts() {
				if n, err = tensor.Elements(m.Rows, m.Cols); err != nil {
					return s.errf("%v", err)
				}
				return s.floats(m, n)
			}
			dataAt = s.i
			if s.index {
				hint := 0
				if haveDims == 2 {
					hint, _ = tensor.Elements(m.Rows, m.Cols)
				}
				n, err = s.offsets(hint)
				return err
			}
			n, _, err = s.elements(nil, nil)
			return err
		}
		if err == nil && stop && haveDims == 2 {
			var want int
			want, err = tensor.Elements(m.Rows, m.Cols)
			if err == nil && haveData && want != n {
				err = fmt.Errorf("%dx%d needs %d elements, got %d", m.Rows, m.Cols, want, n)
			}
			if err != nil {
				return s.errf("%v", err)
			}
			return errHead
		}
		return err
	})
	if err != nil {
		return err
	}
	if want, err := tensor.Elements(m.Rows, m.Cols); err != nil || want != n {
		if err == nil {
			err = fmt.Errorf("%dx%d needs %d elements, got %d", m.Rows, m.Cols, want, n)
		}
		return s.errf("%v", err)
	}
	if dataAt >= 0 && s.converts() {
		end := s.i
		s.i = dataAt
		err = s.floats(m, n)
		s.i = end
	}
	return err
}

// elements walks one data array, an array of numbers and nulls, and returns
// how many it holds. It is the one loop all three readers of a data array run:
// with into non-nil it converts the elements into it — strconv.ParseFloat, the
// conversion encoding/json uses, null as 0 — and refuses an element beyond
// len(into); with at non-nil it appends the offset of each element's token;
// with neither it only validates. A comma with the next token right behind it,
// as every encoder writes it, is taken without a look for whitespace.
func (s *scanner) elements(into []float64, at []uint32) (int, []uint32, error) {
	if err := s.open('[', "array"); err != nil {
		return 0, at, err
	}
	if s.ws(); s.eat(']') {
		s.depth--
		return 0, at, nil
	}
	b := s.b
	for n := 0; ; {
		start := s.i
		if at != nil {
			at = append(at, uint32(start))
		}
		if into != nil && n == len(into) {
			return n, at, s.errf("more than the %d elements rows and cols declare", n)
		}
		if start < len(b) && b[start] == 'n' && s.literal("null") {
			if into != nil {
				into[n] = 0 // into is recycled: nothing in it is zero unless written
			}
		} else {
			end, missing := numberEnd(b, start)
			if s.i = end; missing != "" {
				return n, at, s.errf("expected %s", missing)
			}
			if into != nil {
				x, err := strconv.ParseFloat(string(b[start:end]), 64)
				if err != nil {
					return n, at, s.errf("%q: %w", b[start:end], strconv.ErrRange)
				}
				into[n] = x
			}
		}
		n++
		if i := s.i; i+1 < len(b) && b[i] == ',' && b[i+1] > ' ' {
			s.i = i + 1
			continue
		}
		if more, err := s.more(']'); !more {
			return n, at, err
		}
	}
}

// floats parses m's data array, which must hold exactly n = Rows×Cols numbers,
// into a tensor from the free list (Request.Release returns it; a fault here
// returns it at once). n elements take at least 2n+1 bytes ("[0,0]"), so a
// declared shape the rest of the body cannot hold is refused before anything
// is reserved for it.
func (s *scanner) floats(m *Matrix, n int) error {
	if n > (len(s.b)-s.i)/2 {
		return s.errf("%d elements declared, %d bytes left", n, len(s.b)-s.i)
	}
	t := tensor.Recycled(m.Rows, m.Cols)
	got, _, err := s.elements(t.Data, nil)
	if err == nil && got != n {
		err = s.errf("%d elements declared, got %d", n, got)
	}
	if err != nil {
		tensor.Recycle(t)
		return err
	}
	m.Data, s.tensors[len(s.tensors)-1] = t.Data, t
	return nil
}
