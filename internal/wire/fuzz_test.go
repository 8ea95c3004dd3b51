package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"shmt/internal/tensor"
)

// The schema as serve/http.go and cluster/remote.go each declared it before
// this package existed: the reference the decoder is fuzzed against.
type legacyMatrix struct {
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Data []float64 `json:"data"`
}

type legacyRequest struct {
	Op        string             `json:"op"`
	Inputs    []legacyMatrix     `json:"inputs"`
	Attrs     map[string]float64 `json:"attrs,omitempty"`
	TimeoutMs int                `json:"timeout_ms,omitempty"`
}

// legacyShapesOK is the check tensor.FromSlice (with this PR's fix) applies
// to every input right after decoding; the decoder applies it while decoding.
func legacyShapesOK(req *legacyRequest) bool {
	for _, m := range req.Inputs {
		if n, err := tensor.Elements(m.Rows, m.Cols); err != nil || n != len(m.Data) {
			return false
		}
	}
	return true
}

// hasDuplicateKey reports whether some object of the (valid) document names
// two keys that are equal under encoding/json's case folding.
func hasDuplicateKey(body []byte) bool {
	type frame struct {
		keys    map[string]bool // nil: an array
		wantKey bool
	}
	fold := strings.NewReplacer("\u212a", "k", "\u017f", "s")
	dec := json.NewDecoder(bytes.NewReader(body))
	var stack []frame
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		top := len(stack) - 1
		if key, ok := tok.(string); ok && top >= 0 && stack[top].wantKey {
			key = strings.ToLower(fold.Replace(key))
			if stack[top].keys[key] {
				return true
			}
			stack[top].keys[key] = true
			stack[top].wantKey = false
			continue
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, frame{keys: map[string]bool{}, wantKey: true})
			continue
		case json.Delim('['):
			stack = append(stack, frame{})
			continue
		case json.Delim('}'), json.Delim(']'):
			stack = stack[:top]
			top--
		}
		// A value ended: the object around it expects a key next.
		if top >= 0 && stack[top].keys != nil {
			stack[top].wantKey = true
		}
	}
}

// matrixDiff reports how got differs from want, element bits included.
func matrixDiff(got, want Matrix) error {
	if got.Rows != want.Rows || got.Cols != want.Cols || len(got.Data) != len(want.Data) {
		return fmt.Errorf("%dx%d with %d values, want %dx%d with %d", got.Rows, got.Cols, len(got.Data), want.Rows, want.Cols, len(want.Data))
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			return fmt.Errorf("element %d is %v (%#x), want %v (%#x)", i, got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
	return nil
}

func sameRequest(got *Request, want *legacyRequest) error {
	if got.Op != want.Op || got.TimeoutMs != want.TimeoutMs {
		return fmt.Errorf("op/timeout %q/%d, want %q/%d", got.Op, got.TimeoutMs, want.Op, want.TimeoutMs)
	}
	if len(got.Inputs) != len(want.Inputs) || len(got.Attrs) != len(want.Attrs) {
		return fmt.Errorf("%d inputs %d attrs, want %d and %d", len(got.Inputs), len(got.Attrs), len(want.Inputs), len(want.Attrs))
	}
	for k, x := range want.Attrs {
		if y, ok := got.Attrs[k]; !ok || math.Float64bits(x) != math.Float64bits(y) {
			return fmt.Errorf("attr %q = %v (present %v), want %v", k, y, ok, x)
		}
	}
	for i, m := range want.Inputs {
		if err := matrixDiff(got.Inputs[i], Matrix(m)); err != nil {
			return fmt.Errorf("input %d: %w", i, err)
		}
	}
	return nil
}

// checkDecode holds DecodeRequest to its contract on one body.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	var want legacyRequest
	legacyErr := json.Unmarshal(body, &want)
	legacyOK := legacyErr == nil && legacyShapesOK(&want)
	got, err := DecodeRequest(body)
	switch {
	case err == nil && !legacyOK:
		t.Fatalf("accepted %q, which encoding/json + FromSlice refuse (%v)", body, legacyErr)
	case err == nil:
		if derr := sameRequest(got, &want); derr != nil {
			t.Fatalf("%q: %v", body, derr)
		}
	case legacyOK:
		// Narrowing: the only bodies refused here and accepted there name a
		// schema field twice, or hold more inputs or attrs than a request can
		// use (a duplicate inputs or attrs can hide those from encoding/json,
		// which keeps the last).
		dup := hasDuplicateKey(body)
		tooMany := len(want.Inputs) > maxInputs || len(want.Attrs) > maxAttrs || dup
		if !(errors.Is(err, ErrDuplicateKey) && dup) && !(errors.Is(err, errTooMany) && tooMany) {
			t.Fatalf("refused %q (%v), which encoding/json + FromSlice accept", body, err)
		}
	}
}

// checkPeek holds PeekRequest to the head read's contract on one body: it
// refuses only what DecodeRequest refuses, and on everything DecodeRequest
// accepts it reports the decoded opcode and the decoded first input's shape.
// (What it accepts and DecodeRequest refuses is a fault after the head: the
// backend's 400, not the router's.)
func checkPeek(t *testing.T, body []byte) {
	t.Helper()
	full, derr := DecodeRequest(body)
	head, herr := PeekRequest(body)
	switch {
	case herr != nil && derr == nil:
		t.Fatalf("the head read refused %q (%v), which decodes", body, herr)
	case herr != nil || derr != nil:
		return
	}
	if head.Op != full.Op || len(head.Inputs) != min(len(full.Inputs), 1) || head.Attrs != nil || head.TimeoutMs != 0 {
		t.Fatalf("%q: head %+v, decode op %q with %d inputs", body, head, full.Op, len(full.Inputs))
	}
	if len(head.Inputs) == 1 {
		if h, m := head.Inputs[0], full.Inputs[0]; h.Rows != m.Rows || h.Cols != m.Cols || h.Data != nil {
			t.Fatalf("%q: head input is %dx%d (data nil: %v), decode %dx%d", body, h.Rows, h.Cols, h.Data == nil, m.Rows, m.Cols)
		}
	}
}

// checkIndex holds IndexRequest to the contract of the full validation that
// converts nothing: it refuses only what DecodeRequest refuses, accepts
// everything DecodeRequest accepts bar a data literal beyond float64's range,
// and reports the decoded header. It returns both results, nil when either
// refused.
func checkIndex(t *testing.T, body []byte) (*IndexedRequest, *Request) {
	t.Helper()
	full, derr := DecodeRequest(body)
	ix, ierr := IndexRequest(body)
	switch {
	case ierr != nil && derr == nil:
		t.Fatalf("the index refused %q (%v), which decodes", body, ierr)
	case ierr != nil:
		return nil, nil
	case derr != nil:
		// The one thing only a conversion can see.
		if !errors.Is(derr, strconv.ErrRange) {
			t.Fatalf("the index accepted %q, which does not decode: %v", body, derr)
		}
		return nil, nil
	}
	if ix.Op != full.Op || ix.TimeoutMs != full.TimeoutMs || len(ix.Inputs) != len(full.Inputs) || len(ix.Data) != len(full.Inputs) || len(ix.Attrs) != len(full.Attrs) {
		t.Fatalf("%q: indexed %+v with %d data arrays, decode op %q timeout %d inputs %d", body, ix.Request, len(ix.Data), full.Op, full.TimeoutMs, len(full.Inputs))
	}
	for k, x := range full.Attrs {
		if y, ok := ix.Attrs[k]; !ok || math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("%q: indexed attr %q = %v (present %v), decode %v", body, k, y, ok, x)
		}
	}
	for k, m := range full.Inputs {
		if h := ix.Inputs[k]; h.Rows != m.Rows || h.Cols != m.Cols || h.Data != nil || ix.Data[k].Len() != len(m.Data) {
			t.Fatalf("%q: input %d indexed as %dx%d with %d elements (data nil: %v), decodes as %dx%d", body, k, h.Rows, h.Cols, ix.Data[k].Len(), h.Data == nil, m.Rows, m.Cols)
		}
	}
	return ix, full
}

// seedBodies start every fuzz target off, one body per clause of the
// decoder's contract. The corpus files under testdata/fuzz add the harness's
// three body shapes, the bug reproductions of ISSUE 13 and the bodies of
// TestRouterRejectsBadRequests and TestHTTPBadRequests. A plain `go test`
// runs every target over all of them.
var seedBodies = []string{
	`{"op":"add","extra":{"a":[1,{"b":null}],"c":"é\n"},"inputs":[{"rows":1,"cols":1,"data":[1],"more":true}]}`,
	`{"OP":"add","Inputs":[{"ROWS":1,"cOLS":1,"Data":[1]}],"TIMEOUT_MS":5}`,
	"{\"op\":\"add\",\"inputſ\":[{\"rowſ\":1,\"colſ\":1,\"data\":[2]}]}",
	"{\"op\":\"add\",\"Key\":1,\"inputs\":null}",
	`{"op":null,"inputs":[null,{"rows":null,"cols":null,"data":null}],"attrs":null,"timeout_ms":null}`,
	`{"op":"add","inputs":[{"rows":1,"cols":3,"data":[1,null,3]}],"attrs":{"a":null}}`,
	`{"op":"add😀\"\\\/","inputs":[]}`,
	"{\"op\":\"a\xffd\",\"inputs\":[]}",
	`{"op":"add","inputs":[{"rows":2.0,"cols":1,"data":[1,2]}]}`,
	`{"op":"add","inputs":[{"rows":1e2,"cols":1,"data":[1]}]}`,
	`{"op":"add","inputs":[],"timeout_ms":1.5}`,
	`{"op":"add","inputs":[{"rows":1,"cols":1,"data":[1e999]}]}`,
	`{"op":"add","inputs":[{"rows":1,"cols":1,"data":[1e-999]}]}`,
	`{"op":"add","inputs":[{"data":[1,2],"rows":1,"cols":2}]}`,
	`{"op":"add","inputs":[{"data":[1e999],"rows":1,"cols":1}]}`,
	`{"op":"add","inputs":[{"rows":9223372036854775807,"cols":9223372036854775807,"data":[1]}]}`,
	`{"op":"add","inputs":[{"rows":1000000,"cols":1000000,"data":[1]}]}`,
	`{"op":"add","inputs":[{"rows":1,"cols":1,"data":[-0,0.0,-0.0e0,1E+2,1e-7,5e-324,2.2250738585072014e-308]}]}`,
	`{"op":"add","inputs":[{"rows":1,"cols":1,"data":[01]}]}`,
	`{"op":"add","inputs":[{"rows":1,"cols":1,"data":[+1]}]}`,
	`{"op":"add","inputs":[{"rows":1,"cols":1,"data":[.5]}]}`,
	`{"op":"add","inputs":[{"rows":1,"cols":1,"data":[1.]}]}`,
	`{"op":"add","inputs":[{"rows":1,"cols":1,"data":[0x10]}]}`,
	`{"op":"add","inputs":[{"rows":1,"cols":1,"data":[NaN]}]}`,
	`{"op":"add","inputs":[{"rows":1,"cols":1,"data":[1,]}]}`,
	`{"op":"add","op":"sub","inputs":[]}`,
	`{"op":"add","Op":"sub","inputs":[]}`,
	`{"op":"add","inputs":[],"attrs":{"a":1,"a":2}}`,
	`{"op":"add","inputs":[],"x":1,"x":2}`,
	`{"op":"add","inputs":[]} trailing garbage`,
	`{"op":"add","inputs":[]}{}`,
	" \t\r\n{ \"op\" : \"add\" , \"inputs\" : [ ] } \n",
	`null`,
	`[]`,
	`"add"`,
	`{"op":5,"inputs":{}}`,
	`{"op":"add","inputs":[[]]}`,
	`{"op":"add","inputs":[],"attrs":{"a":"x"}}`,
	`{"op":"add","inputs":[],"attrs":[]}`,
	`{null:1}`,
	`{"op":"a` + "\x01" + `dd"}`,
	`{"op":"\x"}`,
	`{"op":"\u12"}`,
	``,
	`{`,
	`{"op"`,
	`{"op":tru}`,
	`{"x":[[[[{"y":[[]]}]]]],"op":"add"}`,
}

// numberBodies seed what the data-array loop and the eight-at-a-step digit
// test branch on: digit runs one short of a word, a word, one over, two words
// and one over; null elements; whitespace on either side of a comma; a number
// as the body's last bytes, at each of those lengths; inputs and attrs at and
// beyond their bounds.
var numberBodies = []string{
	`{"op":"add","inputs":[{"rows":1,"cols":5,"data":[1234567,12345678,123456789,1234567890123456,12345678901234567]}]}`,
	`{"op":"add","inputs":[{"rows":1,"cols":5,"data":[0.1234567,0.12345678,-0.123456789,0.1234567890123456e-12345678,0.12345678901234567E+123456789]}]}`,
	`{"op":"add","inputs":[{"rows":1,"cols":3,"data":[0.1234567x,0.12345678,0.123456789]}]}`,
	`{"op":"add","inputs":[{"rows":1,"cols":3,"data":[0.12345678/,0.1234567:,1]}]}`,
	`{"op":"add","inputs":[{"rows":2,"cols":3,"data":[null,1,null,null,2,null]}]}`,
	`{"op":"add","inputs":[{"rows":1,"cols":3,"data":[null,1,null]}]}`,
	`{"op":"add","inputs":[{"data":[null ,null, 1e0,null],"cols":2,"rows":2},{"rows":2,"cols":2,"data":[null,null,null,null]}]}`,
	`{"op":"add","inputs":[{"rows":1,"cols":2,"data":[nul,1]}]}`,
	"{\"op\":\"add\",\"inputs\":[{\"rows\":1,\"cols\":4,\"data\":[1 ,2, 3\t,\n4]}]}",
	"{\"op\":\"add\",\"inputs\":[{\"rows\":1,\"cols\":2,\"data\":[1,\x0b2]}]}",
	`{"op":"add","inputs":[{"rows":1,"cols":2,"data":[1,,2]}]}`,
	`{"op":"add","inputs":[{"rows":1,"cols":1,"data":[1234567`,
	`{"op":"add","inputs":[{"rows":1,"cols":1,"data":[12345678`,
	`{"op":"add","inputs":[{"rows":1,"cols":1,"data":[0.123456789`,
	`{"op":"add","inputs":[{"rows":1,"cols":2,"data":[1,`,
	`{"op":"add","inputs":[{"rows":1,"cols":1,"data":[1.5e`,
	`1234567890123456`,
	`{"op":"add","inputs":[null,null]}`,
	`{"op":"add","inputs":[null,null,null]}`,
	`{"inputs":[{"rows":1,"cols":1,"data":[1]},null,{"rows":1,"cols":1,"data":[1]}],"op":"add"}`,
	`{"op":"add","inputs":[],"attrs":{` + manyAttrs(maxAttrs) + `}}`,
	`{"op":"add","inputs":[],"attrs":{` + manyAttrs(maxAttrs+1) + `}}`,
	`{"op":"add","inputs":[],"attrs":{` + manyAttrs(maxAttrs+1) + `},"attrs":{}}`,
}

// manyAttrs is the inside of an attrs object of n distinct keys.
func manyAttrs(n int) string {
	var sb strings.Builder
	for k := 0; k < n; k++ {
		if k > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `"a%d":%d`, k, k)
	}
	return sb.String()
}

// addSeeds starts a wire fuzz target off with every seed list.
func addSeeds(f *testing.F, more ...string) {
	for _, list := range [][]string{seedBodies, more, numberBodies} {
		for _, b := range list {
			f.Add([]byte(b))
		}
	}
}

func FuzzDecodeRequest(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, body []byte) { checkDecode(t, body) })
}

// FuzzPeekRequest: the head read against the decoder.
func FuzzPeekRequest(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, body []byte) { checkPeek(t, body) })
}
