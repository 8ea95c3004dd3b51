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
		// schema field twice.
		if !errors.Is(err, ErrDuplicateKey) || !hasDuplicateKey(body) {
			t.Fatalf("refused %q (%v), which encoding/json + FromSlice accept", body, err)
		}
	}
}

// checkPeek holds PeekRequest to its contract on one body: it refuses only
// what DecodeRequest refuses, accepts everything DecodeRequest accepts, and
// then reports the same header.
func checkPeek(t *testing.T, body []byte) {
	t.Helper()
	full, derr := DecodeRequest(body)
	head, perr := PeekRequest(body)
	switch {
	case perr != nil && derr == nil:
		t.Fatalf("peek refused %q (%v), which decodes", body, perr)
	case perr != nil:
		return
	case derr != nil:
		// The one thing a peek cannot see: a number of a data array outside
		// float64's range.
		if !errors.Is(derr, strconv.ErrRange) {
			t.Fatalf("peek accepted %q, which does not decode: %v", body, derr)
		}
		return
	}
	if head.Op != full.Op || head.TimeoutMs != full.TimeoutMs || len(head.Inputs) != len(full.Inputs) || len(head.Attrs) != len(full.Attrs) {
		t.Fatalf("%q: peek %+v, decode op %q timeout %d inputs %d", body, head, full.Op, full.TimeoutMs, len(full.Inputs))
	}
	for i, m := range full.Inputs {
		if h := head.Inputs[i]; h.Rows != m.Rows || h.Cols != m.Cols || h.Data != nil {
			t.Fatalf("%q: peek input %d is %dx%d (data nil: %v), decode %dx%d", body, i, h.Rows, h.Cols, h.Data == nil, m.Rows, m.Cols)
		}
	}
}

// seedBodies start every fuzz target off, one body per clause of the
// decoder's contract. The corpus files under testdata/fuzz add the harness's
// three body shapes, the bug reproductions of ISSUE 13 and the bodies of
// TestRouterRejectsBadRequests and TestHTTPBadRequests. A plain `go test`
// runs both targets over all of them.
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

func FuzzDecodeRequest(f *testing.F) {
	for _, b := range seedBodies {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkDecode(t, body) })
}

func FuzzPeekRequest(f *testing.F) {
	for _, b := range seedBodies {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkPeek(t, body) })
}
