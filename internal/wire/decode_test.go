package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"shmt/internal/tensor"
)

// TestDecodeContract pins the decoder's contract clause by clause, with the
// expected outcome written down rather than derived from encoding/json (the
// fuzz targets do that).
func TestDecodeContract(t *testing.T) {
	const ok = `{"op":"add","inputs":[{"rows":1,"cols":2,"data":[1,2]}]}`
	accept := map[string]string{
		"plain":                       ok,
		"whitespace":                  " \t\r\n{ \"op\" : \"add\" , \"inputs\" : [ { \"rows\" : 1 , \"cols\" : 2 , \"data\" : [ 1 , 2 ] } ] } \n",
		"unknown keys skipped":        `{"x":{"a":[1,{"b":null}],"c":"é\n"},"op":"add","inputs":[{"rows":1,"more":true,"cols":2,"data":[1,2]}]}`,
		"keys match case-insensitive": `{"OP":"add","Inputs":[{"ROWS":1,"cOLS":2,"Data":[1,2]}]}`,
		"keys match by folding":       "{\"op\":\"add\",\"inputſ\":[{\"rowſ\":1,\"colſ\":2,\"data\":[1,2]}]}",
		"escaped key and value":       `{"\u006fp":"\u0061dd","inputs":[{"rows":1,"cols":2,"data":[1,2]}]}`,
		"null leaves fields zero":     `{"op":"add","inputs":[{"rows":1,"cols":2,"data":[1,2]}],"attrs":null,"timeout_ms":null}`,
		"data before rows and cols":   `{"op":"add","inputs":[{"data":[1,2],"cols":2,"rows":1}]}`,
		"number forms":                `{"op":"add","inputs":[{"rows":1,"cols":2,"data":[1.0E+0,2e0]}]}`,
	}
	for name, body := range accept {
		req, err := DecodeRequest([]byte(body))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if req.Op != "add" || len(req.Inputs) != 1 || req.Inputs[0].Rows != 1 || req.Inputs[0].Cols != 2 ||
			len(req.Inputs[0].Data) != 2 || req.Inputs[0].Data[0] != 1 || req.Inputs[0].Data[1] != 2 {
			t.Errorf("%s: decoded %+v", name, req)
		}
	}

	refuse := map[string]string{
		"2.0 for rows":                `{"op":"add","inputs":[{"rows":1.0,"cols":2,"data":[1,2]}]}`,
		"1e2 for cols":                `{"op":"add","inputs":[{"rows":1,"cols":1e2,"data":[1,2]}]}`,
		"1.5 for timeout_ms":          strings.Replace(ok, `{"op"`, `{"timeout_ms":1.5,"op"`, 1),
		"1e999 in data":               `{"op":"add","inputs":[{"rows":1,"cols":2,"data":[1,1e999]}]}`,
		"1e999 in data before dims":   `{"op":"add","inputs":[{"data":[1,1e999],"rows":1,"cols":2}]}`,
		"1e999 in attrs":              strings.Replace(ok, `{"op"`, `{"attrs":{"a":1e999},"op"`, 1),
		"leading zero":                `{"op":"add","inputs":[{"rows":1,"cols":2,"data":[01,2]}]}`,
		"leading plus":                `{"op":"add","inputs":[{"rows":1,"cols":2,"data":[+1,2]}]}`,
		"bare fraction":               `{"op":"add","inputs":[{"rows":1,"cols":2,"data":[.5,2]}]}`,
		"trailing point":              `{"op":"add","inputs":[{"rows":1,"cols":2,"data":[1.,2]}]}`,
		"hex":                         `{"op":"add","inputs":[{"rows":1,"cols":2,"data":[0x1,2]}]}`,
		"NaN":                         `{"op":"add","inputs":[{"rows":1,"cols":2,"data":[NaN,2]}]}`,
		"trailing comma":              `{"op":"add","inputs":[{"rows":1,"cols":2,"data":[1,2,]}]}`,
		"string for a number":         `{"op":"add","inputs":[{"rows":"1","cols":2,"data":[1,2]}]}`,
		"number for op":               `{"op":5,"inputs":[]}`,
		"object for inputs":           `{"op":"add","inputs":{}}`,
		"array for an input":          `{"op":"add","inputs":[[]]}`,
		"string attr":                 `{"op":"add","inputs":[],"attrs":{"a":"x"}}`,
		"top-level array":             `[]`,
		"empty body":                  ``,
		"not json":                    `{not json`,
		"null key":                    `{null:1}`,
		"control character in string": "{\"op\":\"a\x01dd\"}",
		"bad escape":                  `{"op":"\x"}`,
		"short \\u escape":            `{"op":"\u12"}`,
		"too deep":                    `{"x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`,
		// Shape: what tensor.FromSlice would refuse one step later.
		"negative dimensions":   `{"op":"add","inputs":[{"rows":-2,"cols":-2,"data":[1,2,3,4]}]}`,
		"too few elements":      `{"op":"add","inputs":[{"rows":2,"cols":2,"data":[1,2,3]}]}`,
		"too many elements":     `{"op":"add","inputs":[{"rows":1,"cols":1,"data":[1,2]}]}`,
		"dimensions overflow":   `{"op":"add","inputs":[{"rows":9223372036854775807,"cols":3,"data":[1]}]}`,
		"shape without data":    `{"op":"add","inputs":[{"rows":1,"cols":1}]}`,
		"null for a whole cell": `{"op":"add","inputs":[{"rows":1,"cols":1,"data":null}]}`,
		// The three narrowings.
		"three inputs":      `{"op":"add","inputs":[null,null,null]}`,
		"too many attrs":    `{"op":"add","inputs":[],"attrs":{` + manyAttrs(maxAttrs+1) + `}}`,
		"trailing garbage":  ok + ` trailing garbage`,
		"second document":   ok + `{}`,
		"duplicate key":     `{"op":"add","op":"sub","inputs":[]}`,
		"duplicate by case": `{"op":"add","Op":"sub","inputs":[]}`,
		"duplicate in cell": `{"op":"add","inputs":[{"rows":1,"rows":1,"cols":2,"data":[1,2]}]}`,
		"duplicate attr":    `{"op":"add","inputs":[],"attrs":{"a":1,"a":2}}`,
	}
	for name, body := range refuse {
		if req, err := DecodeRequest([]byte(body)); err == nil {
			t.Errorf("%s: accepted %q as %+v", name, body, req)
		}
		if strings.Contains(name, "1e999 in data") {
			continue // the one thing only a conversion can see
		}
		if req, err := IndexRequest([]byte(body)); err == nil {
			t.Errorf("%s: the index accepted %q as %+v", name, body, req.Request)
		}
	}
	for _, name := range []string{"three inputs", "too many attrs"} {
		if _, err := DecodeRequest([]byte(refuse[name])); !errors.Is(err, errTooMany) {
			t.Errorf("%s: error %v does not wrap errTooMany", name, err)
		}
	}
	for _, name := range []string{"duplicate key", "duplicate by case", "duplicate in cell", "duplicate attr"} {
		if _, err := DecodeRequest([]byte(refuse[name])); !errors.Is(err, ErrDuplicateKey) {
			t.Errorf("%s: error %v does not wrap ErrDuplicateKey", name, err)
		}
	}

	// Accepted, with values worth checking.
	req, err := DecodeRequest([]byte(`{"op":null,"inputs":[null,{"rows":1,"cols":3,"data":[-0,null,1e-999]}],"attrs":{"a":null,"b":2.5},"x":1,"x":2}`))
	if err != nil {
		t.Fatal(err)
	}
	d := req.Inputs[1].Data
	if req.Op != "" || req.Inputs[0].Rows != 0 || req.Inputs[0].Data != nil || !math.Signbit(d[0]) || d[1] != 0 || d[2] != 0 ||
		len(req.Attrs) != 2 || req.Attrs["a"] != 0 || req.Attrs["b"] != 2.5 {
		t.Errorf("decoded %+v", req)
	}
	if req, err := DecodeRequest([]byte(` null `)); err != nil || req.Op != "" || req.Inputs != nil {
		t.Errorf("null document: %+v, %v", req, err)
	}
	// Nesting up to encoding/json's own limit is skipped, not refused (the
	// document's object is the first level).
	deepest := `{"x":` + strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1) + `,"op":"add"}`
	if req, err := DecodeRequest([]byte(deepest)); err != nil || req.Op != "add" {
		t.Errorf("nesting at the limit: %v", err)
	}
}

// TestPeekReturnsTheHeader: the head read reports the opcode and the first
// input's shape whatever order the keys come in, keeps nothing else, refuses a
// fault it has read, and does not read past the point where it knows both.
func TestPeekReturnsTheHeader(t *testing.T) {
	accept := map[string]string{
		"in order":                 `{"op":"GEMM","inputs":[{"rows":2,"cols":3,"data":[1,2,3,4,5,6]},{"rows":3,"cols":1,"data":[1,2,3]}],"attrs":{"a":1},"timeout_ms":250}`,
		"data before the shape":    `{"op":"GEMM","inputs":[{"data":[1,2,3,4,5,6],"rows":2,"cols":3},{"rows":3,"cols":1,"data":[1,2,3]}]}`,
		"data between rows, cols":  `{"op":"GEMM","inputs":[{"rows":2,"data":[1,2,3,4,5,6],"cols":3}]}`,
		"op after inputs":          `{"timeout_ms":250,"attrs":{"a":1},"inputs":[{"data":[1,2,3,4,5,6],"rows":2,"cols":3},{"rows":1,"cols":1,"data":[1e999]}],"op":"GEMM"}`,
		"folded keys":              `{"x":[1,{"y":null}],"OP":"GEMM","Inputs":[{"ROWS":2,"colſ":3}]}`,
		"nothing after the head":   `{"op":"GEMM","inputs":[{"rows":2,"cols":3`,
		"a fault after the head":   `{"op":"GEMM","inputs":[{"rows":2,"cols":3,"data":[1,2,x]}]}`,
		"short data":               `{"op":"GEMM","inputs":[{"rows":2,"cols":3,"data":[1,2]}]}`,
		"duplicate after the head": `{"op":"GEMM","inputs":[{"rows":2,"cols":3,"rows":7}],"op":"add"}`,
		"trailing bytes":           `{"op":"GEMM","inputs":[{"rows":2,"cols":3,"data":[1,2,3,4,5,6]}]} x`,
	}
	for name, body := range accept {
		req, err := PeekRequest([]byte(body))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if req.Op != "GEMM" || len(req.Inputs) != 1 || req.Inputs[0].Rows != 2 || req.Inputs[0].Cols != 3 ||
			req.Inputs[0].Data != nil || req.Attrs != nil || req.TimeoutMs != 0 {
			t.Errorf("%s: head %+v", name, req)
		}
	}
	for name, body := range map[string]string{
		"null input":   `{"op":"add","inputs":[null,{"rows":1,"cols":1,"data":[1]}]}`,
		"empty object": `{"op":"add","inputs":[{}]}`,
		"rows alone":   `{"op":"add","inputs":[{"rows":0,"data":[]}]}`,
	} {
		if req, err := PeekRequest([]byte(body)); err != nil || len(req.Inputs) != 1 || req.Inputs[0].Rows != 0 || req.Inputs[0].Cols != 0 {
			t.Errorf("%s: head %+v, %v", name, req, err)
		}
	}
	for name, body := range map[string]string{
		"no inputs":   `{"op":"add","inputs":[]}`,
		"null inputs": `{"inputs":null,"op":"add"}`,
		"op alone":    `{"op":"add"}`,
	} {
		if req, err := PeekRequest([]byte(body)); err != nil || req.Op != "add" || len(req.Inputs) != 0 {
			t.Errorf("%s: head %+v, %v", name, req, err)
		}
	}
	refuse := map[string]string{
		"not json":                 `{not json`,
		"number for op":            `{"op":5,"inputs":[{"rows":1,"cols":1,"data":[1]}]}`,
		"duplicate op":             `{"op":"add","Op":"sub","inputs":[{"rows":1,"cols":1,"data":[1]}]}`,
		"negative shape":           `{"op":"add","inputs":[{"rows":-2,"cols":-2,"data":[1,2,3,4]}]}`,
		"overflowing shape":        `{"op":"add","inputs":[{"rows":9223372036854775807,"cols":3,"data":[1]}]}`,
		"fractional rows":          `{"op":"add","inputs":[{"rows":1.0,"cols":2,"data":[1,2]}]}`,
		"fault before the head":    `{"x":[1,2,],"op":"add","inputs":[{"rows":1,"cols":1,"data":[1]}]}`,
		"fault in data it read":    `{"op":"add","inputs":[{"data":[1,x],"rows":1,"cols":2}]}`,
		"count it read disagrees":  `{"inputs":[{"rows":1,"cols":2,"data":[1]}],"op":"add"}`,
		"the same, op first":       `{"op":"add","inputs":[{"data":[1],"rows":1,"cols":2}]}`,
		"null data it read":        `{"op":"add","inputs":[{"data":null,"rows":1,"cols":2}]}`,
		"nulls beyond any opcode":  `{"op":"add","inputs":[null,null,null]}`,
		"second input, op pending": `{"inputs":[{"rows":1,"cols":1,"data":[1]},{"rows":1,"cols":1,"data":[1,]}],"op":"add"}`,
		"three inputs, op pending": `{"inputs":[null,null,null],"op":"add"}`,
		"ends before the head":     `{"op":"add","inputs":[{"rows":2,`,
	}
	for name, body := range refuse {
		if req, err := PeekRequest([]byte(body)); err == nil {
			t.Errorf("%s: head read accepted %q as %+v", name, body, req)
		}
		if req, err := DecodeRequest([]byte(body)); err == nil {
			t.Errorf("%s: decoded %q as %+v", name, body, req)
		}
	}
}

// TestDigitsEnd holds the eight-at-a-step digit test to the byte loop:
// every byte value in every lane of a word, among digits and among bytes next
// to the digits in ASCII, and runs of 0–24 digits from every alignment that
// end 0–9 bytes before the slice does.
func TestDigitsEnd(t *testing.T) {
	byteLoop := func(b []byte, i int) int {
		for i < len(b) && isDigit(b[i]) {
			i++
		}
		return i
	}
	check := func(b []byte, i int) {
		t.Helper()
		if got, want := digitsEnd(b, i), byteLoop(b, i); got != want {
			t.Fatalf("digitsEnd(%q, %d) = %d, the byte loop says %d", b, i, got, want)
		}
	}
	for _, fill := range []byte{'0', '9', '5', '/', ':', 0x00, 0x80, 0xb5, 0xff} {
		for lane := 0; lane < 8; lane++ {
			for v := 0; v < 256; v++ {
				b := bytes.Repeat([]byte{fill}, 16)
				for k := 0; k < lane; k++ {
					b[k] = '7'
				}
				b[lane] = byte(v)
				check(b, 0)
				check(b[:8], 0)
			}
		}
	}
	for run := 0; run <= 24; run++ {
		for dist := 0; dist <= 9; dist++ {
			for lead := 0; lead <= 8; lead++ {
				for _, stop := range []byte{',', ']', '.', 'e', ' ', '/', ':'} {
					b := append(bytes.Repeat([]byte{'x'}, lead), bytes.Repeat([]byte{'8'}, run)...)
					if dist > 0 {
						b = append(append(b, stop), bytes.Repeat([]byte{'1'}, dist-1)...)
					}
					check(b, lead)
				}
			}
		}
	}
}

// TestTooManyInputsCostNothing: an inputs array of millions of nulls — 40
// bytes of Matrix each, were they kept — is refused at the first one beyond
// what any opcode takes, by every reader, for less memory than the body.
func TestTooManyInputsCostNothing(t *testing.T) {
	nulls := strings.Repeat("null,", 4<<20) + "null"
	opLast, opFirst := []byte(`{"inputs":[`+nulls+`],"op":"add"}`), []byte(`{"op":"add","inputs":[`+nulls+`]}`)
	for name, read := range map[string]func([]byte) error{
		"decode": func(b []byte) error { _, err := DecodeRequest(b); return err },
		"index":  func(b []byte) error { _, err := IndexRequest(b); return err },
		"head":   func(b []byte) error { _, err := PeekRequest(b); return err },
	} {
		for _, body := range [][]byte{opLast, opFirst} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := read(body)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, errTooMany) {
				t.Errorf("%s: error %v", name, err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(body)) {
				t.Errorf("%s: refusing a %d-byte body allocated %d bytes", name, len(body), grew)
			}
		}
	}
}

// TestDeclaredShapeBeyondTheBody: rows×cols that the rest of the body cannot
// hold is refused before anything is allocated for it.
func TestDeclaredShapeBeyondTheBody(t *testing.T) {
	body := []byte(`{"op":"add","inputs":[{"rows":20000,"cols":20000,"data":[1,2,3]}]}`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeRequest(body)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "400000000 elements declared") {
		t.Fatalf("error %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing the body allocated %d bytes", grew)
	}
}

// TestIndexReply: the reply index reads the output's shape and makespan,
// finds the output's elements, validates and skips everything else in the
// reply, and refuses what is not one.
func TestIndexReply(t *testing.T) {
	rep, err := indexReply([]byte(`{"output":{"rows":1,"cols":2,"data":[0.5, -3 ]},"hlops":7,"makespan_seconds":0.25,"batch_size":2,` +
		`"degraded":{"Rerouted":1},"trace":{"trace_id":"x","stages":{"decode_seconds":1}}}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	data := rep.Data
	if text := string(data.AppendTo(nil, 0, data.Len())); rep.Rows != 1 || rep.Cols != 2 || data.Len() != 2 || text != "0.5, -3" {
		t.Fatalf("indexed %dx%d, %d elements %q", rep.Rows, rep.Cols, data.Len(), text)
	}
	if rep.MakespanSeconds != 0.25 {
		t.Fatalf("makespan_seconds read as %v, want 0.25", rep.MakespanSeconds)
	}
	for _, bad := range []string{
		`{"output":{"rows":1,"cols":2,"data":[0.5]}}`,
		`{"output":{"rows":1,"cols":1,"data":[0.5]},"output":{"rows":1,"cols":1,"data":[0.5]}}`,
		`{"output":{"rows":1,"cols":1,"data":[0.5]},"trace":{]}`,
		`{"output":{"rows":1,"cols":1,"data":[0.5]}} x`,
		`{"output":{"rows":1,"cols":1,"data":[0.5]},"makespan_seconds":"1"}`,
		`{"output":{"rows":1,"cols":1,"data":[0.5]},"makespan_seconds":1,"makespan_seconds":1}`,
	} {
		if rep, err := indexReply([]byte(bad)); err == nil {
			t.Errorf("accepted %q as %dx%d", bad, rep.Rows, rep.Cols)
		}
	}
}

// poisoned leaves the free list's next eight rows×cols tensors the NaN-filled
// tensors it returns: whatever a decode takes from the list next, it finds no
// zero in it that it did not write. A class is a stack, and at these sizes it
// keeps far more than the eight plus a miss's seven spares, so the eight put
// back are the eight on top.
func poisoned(rows, cols int) []*tensor.Matrix {
	ms := make([]*tensor.Matrix, 8)
	for i := range ms {
		ms[i] = tensor.Recycled(rows, cols)
		for k := range ms[i].Data {
			ms[i].Data[k] = math.NaN()
		}
	}
	for _, m := range ms {
		tensor.Recycle(m)
	}
	return ms
}

// holds reports whether data is the storage of one of ms.
func holds(ms []*tensor.Matrix, data []float64) bool {
	for _, m := range ms {
		if &m.Data[0] == &data[0] {
			return true
		}
	}
	return false
}

// TestDecodeIntoRecycledTensors: decoded into tensors that come back from the
// free list full of NaN, a request reads bit for bit as encoding/json reads it
// — null elements included, which used to be zero only because make had
// zeroed the slice.
func TestDecodeIntoRecycledTensors(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var sb strings.Builder
	sb.WriteString(`{"op":"relu","inputs":[{"rows":67,"cols":129,"data":[`)
	for i := 0; i < 67*129; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		if rng.Intn(10) == 0 {
			sb.WriteString("null")
		} else {
			fmt.Fprintf(&sb, "%g", rng.NormFloat64()*1e3)
		}
	}
	sb.WriteString(`]}]}`)
	for _, tc := range []struct {
		rows, cols int
		body       string
	}{
		{1, 3, `{"op":"relu","inputs":[{"rows":1,"cols":3,"data":[null,1,null]}]}`},
		{1, 3, `{"op":"relu","inputs":[{"data":[null , null,null ],"rows":1,"cols":3}]}`},
		{67, 129, sb.String()},
	} {
		ms := poisoned(tc.rows, tc.cols)
		got, err := DecodeRequest([]byte(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if !holds(ms, got.Inputs[0].Data) {
			t.Fatalf("%dx%d: the input was not decoded into a tensor of the free list", tc.rows, tc.cols)
		}
		var want legacyRequest
		if err := json.Unmarshal([]byte(tc.body), &want); err != nil {
			t.Fatal(err)
		}
		if err := sameRequest(got, &want); err != nil {
			t.Fatalf("%dx%d: %v", tc.rows, tc.cols, err)
		}
		v, err := got.VOP()
		if err != nil || &v.Inputs[0].Data[0] != &got.Inputs[0].Data[0] {
			t.Fatalf("the VOP's input is not the decoded tensor: %v", err)
		}
		got.Release()
		got.Release() // the second does nothing
		if got.Inputs[0].Data != nil || !holds(ms, tensor.Recycled(tc.rows, tc.cols).Data) {
			t.Fatalf("%dx%d: Release did not return the tensor", tc.rows, tc.cols)
		}
	}
}

// TestDecodeFaultReturnsTheTensors: a request refused after the decoder took
// tensors for it — a short array, one element too many, a literal beyond
// float64, a fault in a later input or after the inputs — leaves every one of
// them back on the free list.
func TestDecodeFaultReturnsTheTensors(t *testing.T) {
	const good = `{"rows":2,"cols":2,"data":[1,2,3,4]}`
	for name, body := range map[string]string{
		"short array":       `{"op":"relu","inputs":[{"rows":2,"cols":2,"data":[1,2,3]}]}`,
		"one too many":      `{"op":"relu","inputs":[{"rows":2,"cols":2,"data":[1,2,3,4,5]}]}`,
		"out of range":      `{"op":"relu","inputs":[{"rows":2,"cols":2,"data":[1,2,1e999,4]}]}`,
		"bad token":         `{"op":"relu","inputs":[{"rows":2,"cols":2,"data":[1,2,x,4]}]}`,
		"data first, short": `{"op":"relu","inputs":[{"data":[1,2,3],"rows":2,"cols":2}]}`,
		"second input":      `{"op":"add","inputs":[` + good + `,{"rows":2,"cols":2,"data":[1,2,3]}]}`,
		"duplicate key":     `{"op":"add","inputs":[` + good + `,{"rows":2,"cols":2,"data":[1,2,3,4],"rows":2}]}`,
		"after the inputs":  `{"op":"add","inputs":[` + good + `,` + good + `],"timeout_ms":1.5}`,
		"trailing bytes":    `{"op":"add","inputs":[` + good + `,` + good + `]} x`,
		"too many inputs":   `{"op":"add","inputs":[` + strings.Repeat(good+",", maxInputs) + good + `]}`,
	} {
		ms := poisoned(2, 2)
		if req, err := DecodeRequest([]byte(body)); err == nil {
			t.Fatalf("%s: decoded %+v", name, req)
		}
		for range ms {
			if m := tensor.Recycled(2, 2); !holds(ms, m.Data) {
				t.Fatalf("%s: a tensor the decoder took did not come back", name)
			}
		}
	}
}
