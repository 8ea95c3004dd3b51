package wire

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
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
		// The two narrowings.
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
			continue // the one thing a peek cannot see
		}
		if req, err := PeekRequest([]byte(body)); err == nil {
			t.Errorf("%s: peek accepted %q as %+v", name, body, req)
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

// TestPeekReturnsTheHeader: a peek reports what placement needs and keeps no
// tensor.
func TestPeekReturnsTheHeader(t *testing.T) {
	req, err := PeekRequest([]byte(`{"timeout_ms":250,"inputs":[{"data":[1,2,3,4,5,6],"rows":2,"cols":3},{"rows":1,"cols":1,"data":[1e999]}],"op":"GEMM"}`))
	if err != nil {
		t.Fatal(err)
	}
	if req.Op != "GEMM" || req.TimeoutMs != 250 || len(req.Inputs) != 2 || req.Inputs[0].Rows != 2 || req.Inputs[0].Cols != 3 ||
		req.Inputs[0].Data != nil || req.Inputs[1].Data != nil {
		t.Fatalf("peeked %+v", req)
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

// TestIndexReply: the reply index reads the output's shape, finds its
// elements, validates and skips everything else in the reply, and refuses
// what is not one.
func TestIndexReply(t *testing.T) {
	rows, cols, data, err := indexReply([]byte(`{"output":{"rows":1,"cols":2,"data":[0.5, -3 ]},"hlops":7,"makespan_seconds":0.25,"batch_size":2,` +
		`"degraded":{"Rerouted":1},"trace":{"trace_id":"x","stages":{"decode_seconds":1}}}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if text := string(data.AppendTo(nil, 0, data.Len())); rows != 1 || cols != 2 || data.Len() != 2 || text != "0.5, -3" {
		t.Fatalf("indexed %dx%d, %d elements %q", rows, cols, data.Len(), text)
	}
	for _, bad := range []string{
		`{"output":{"rows":1,"cols":2,"data":[0.5]}}`,
		`{"output":{"rows":1,"cols":1,"data":[0.5]},"output":{"rows":1,"cols":1,"data":[0.5]}}`,
		`{"output":{"rows":1,"cols":1,"data":[0.5]},"trace":{]}`,
		`{"output":{"rows":1,"cols":1,"data":[0.5]}} x`,
	} {
		if rows, cols, _, err := indexReply([]byte(bad)); err == nil {
			t.Errorf("accepted %q as %dx%d", bad, rows, cols)
		}
	}
}
