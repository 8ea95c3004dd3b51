package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"shmt/internal/core"
	"shmt/internal/telemetry"
)

// viaJSON is what json.NewEncoder(w).Encode(v) puts on the wire.
func viaJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeResponseJSON is WriteResponse as it was while encoding/json formatted
// the output: the reference WriteResponse's replies are held to, and the
// json_oracle rows of BenchmarkWriteResponse.
func writeResponseJSON(w http.ResponseWriter, op string, resp *Response) error {
	buf := getBuffer(0)
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
	_, _ = w.Write(buf.Bytes())
	return nil
}

// TestResponseGolden pins the bytes of a 200 — key order output, hlops,
// makespan_seconds, batch_size, degraded, trace, one trailing newline —
// without and with the degraded and trace annexes: what encoding/json wrote
// for the schema's two former definitions.
func TestResponseGolden(t *testing.T) {
	plain := Response{
		Output: Matrix{Rows: 2, Cols: 2, Data: []float64{1, -0.5, 1e-7, 1e21}},
		HLOPs:  4, MakespanSeconds: 0.00125, BatchSize: 3,
	}
	full := plain
	full.Degraded = &core.Degraded{FailedDispatches: 1, Rerouted: 2}
	full.Trace = &Trace{
		TraceID: "abc", Tenant: "t1", TotalSeconds: 0.5,
		Stages:        telemetry.StageBreakdown{Decode: 0.125, QueueWait: 0.25, Execute: 0.0625},
		CriticalHLOPs: 2, DeviceHLOPs: map[string]int{"gpu": 3, "cpu": 1},
	}
	for name, tc := range map[string]struct {
		resp Response
		want string
	}{
		"plain": {plain, `{"output":{"rows":2,"cols":2,"data":[1,-0.5,1e-7,1e+21]},"hlops":4,"makespan_seconds":0.00125,"batch_size":3}` + "\n"},
		"degraded and trace": {full, `{"output":{"rows":2,"cols":2,"data":[1,-0.5,1e-7,1e+21]},"hlops":4,"makespan_seconds":0.00125,"batch_size":3,` +
			`"degraded":{"Quarantines":null,"FailedDispatches":1,"FailedDispatchSeconds":0,"BackoffSeconds":0,"Rerouted":2,"ReroutedElems":0,"Downgraded":0,"DowngradedElems":0,"ProbeSuccesses":0,"ProbeFailures":0},` +
			`"trace":{"trace_id":"abc","tenant":"t1","total_seconds":0.5,"stages":{"decode_seconds":0.125,"queue_wait_seconds":0.25,"batch_linger_seconds":0,"plan_seconds":0,"quantize_transfer_seconds":0,"execute_seconds":0.0625,"aggregate_seconds":0},"critical_hlops":2,"device_hlops":{"cpu":1,"gpu":3}}}` + "\n"},
		"no output": {Response{BatchSize: 1}, `{"output":{"rows":0,"cols":0,"data":null},"hlops":0,"makespan_seconds":0,"batch_size":1}` + "\n"},
	} {
		rec := httptest.NewRecorder()
		if err := WriteResponse(rec, "add", &tc.resp); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := rec.Body.String(); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", name, got, tc.want)
		}
	}
}

// TestWriteResponseIsEncodingJSON: a whole reply is, byte for byte, what
// encoding/json writes for the Response — without data, with none, with one
// element and with a few thousand of every kind, alone and with the annexes.
func TestWriteResponseIsEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for name, out := range map[string]Matrix{
		"nil data":   {Rows: 3, Cols: 0},
		"empty data": {Rows: 0, Cols: 5, Data: []float64{}},
		"1x1":        {Rows: 1, Cols: 1, Data: []float64{-0.1}},
		"edges":      {Rows: 1, Cols: len(edgeFloats), Data: edgeFloats},
		"67x129":     finiteMatrix(rng, 67, 129),
	} {
		for _, annexes := range []bool{false, true} {
			resp := Response{Output: out, HLOPs: 7, MakespanSeconds: 1.5e-7, BatchSize: 2}
			if annexes {
				resp.Degraded = &core.Degraded{Rerouted: 1, BackoffSeconds: 0.25}
				resp.Trace = &Trace{
					TraceID: "<a&b>", TotalSeconds: 0.5, Stages: telemetry.StageBreakdown{Decode: 1e-7, Execute: 0.25},
					DeadlinePressure: 0.5, DeviceHLOPs: map[string]int{"tpu": 1, "cpu": 2},
				}
			}
			got, want := httptest.NewRecorder(), httptest.NewRecorder()
			if err := WriteResponse(got, "add", &resp); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := writeResponseJSON(want, "add", &resp); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Errorf("%s, annexes %v:\n got %.300s\nwant %.300s", name, annexes, got.Body, want.Body)
			}
			if got.Code != want.Code || !reflect.DeepEqual(got.Header(), want.Header()) {
				t.Errorf("%s, annexes %v: status %d, headers %v, want %d, %v", name, annexes, got.Code, got.Header(), want.Code, want.Header())
			}
		}
	}

	// What encoding/json refuses in the tail is still a 422 with its words.
	got, want := httptest.NewRecorder(), httptest.NewRecorder()
	err := WriteResponse(got, "add", &Response{MakespanSeconds: math.NaN()})
	_ = writeResponseJSON(want, "add", &Response{MakespanSeconds: math.NaN()})
	if err == nil || got.Code != http.StatusUnprocessableEntity || got.Body.String() != want.Body.String() {
		t.Fatalf("NaN makespan: status %d, error %v, body %s, want %s", got.Code, err, got.Body, want.Body)
	}
}

// TestWriteResponseTimesTheEncode: a trace that says when the reply was begun
// leaves with the time it took to format the output, inside the total.
func TestWriteResponseTimesTheEncode(t *testing.T) {
	resp := Response{
		Output: Matrix{Rows: 1, Cols: 3, Data: []float64{1, 2, 3}},
		Trace:  &Trace{TraceID: "x", TotalSeconds: 2, EncodeStart: time.Now().Add(-time.Second)},
	}
	rec := httptest.NewRecorder()
	if err := WriteResponse(rec, "add", &resp); err != nil {
		t.Fatal(err)
	}
	if enc := resp.Trace.Stages.Encode; enc < 1 || resp.Trace.TotalSeconds != 2+enc {
		t.Fatalf("encode %g, total %g", enc, resp.Trace.TotalSeconds)
	}
	if want := viaJSON(t, &resp); !bytes.Equal(rec.Body.Bytes(), want) || !strings.Contains(rec.Body.String(), `"encode_seconds":`) {
		t.Fatalf("got %s\nwant %s", rec.Body, want)
	}
}

// TestReplyBufferStaysPooled: the reservation for a reply is capped at what
// the free list keeps, so a reply of more elements than 16 MiB of worst-case
// text but less than 16 MiB of actual text encodes into a buffer that goes
// back on the list, and the next such reply allocates none. The first reply
// misses, so the list holds its buffer and the miss's spare.
func TestReplyBufferStaysPooled(t *testing.T) {
	drainBuffers()
	n := maxPooledBytes/(maxFloatLen+1) + 50_000
	resp := Response{Output: Matrix{Rows: 1, Cols: n, Data: make([]float64, n)}}
	for i := range resp.Output.Data {
		resp.Output.Data[i] = float64(i%2) * 0.8414709848078965 // relu-like: half zeros
	}
	var first []*bytes.Buffer
	for round := 0; round < 2; round++ {
		rec := httptest.NewRecorder()
		if err := WriteResponse(rec, "relu", &resp); err != nil {
			t.Fatal(err)
		}
		if rec.Body.Len() >= maxPooledBytes {
			t.Fatalf("the reply is %d bytes: not the case under test", rec.Body.Len())
		}
		kept := drainBuffers()
		if len(kept) != 2 {
			t.Fatalf("round %d: %d buffers on the free list, want the reply's and the spare", round, len(kept))
		}
		if round == 0 {
			first = kept
			for _, b := range first {
				if b.Cap() > maxPooledBytes {
					t.Fatalf("round 0 reserved %d bytes, beyond the %d the list keeps", b.Cap(), maxPooledBytes)
				}
				putBuffer(b)
			}
		} else if !(kept[0] == first[0] && kept[1] == first[1] || kept[0] == first[1] && kept[1] == first[0]) {
			t.Fatalf("round 1 left %p %p on the list, round 0 %p %p", kept[0], kept[1], first[0], first[1])
		}
	}
	// The 16 MiB stay off the list: the other tests have no use for them.
}

// drainBuffers empties the free list of body buffers and returns what it held.
func drainBuffers() (kept []*bytes.Buffer) {
	// Sizes 1/16 apart fall in every class, which are at least 1/8 apart.
	for size := 1; size <= maxPooledBytes; size += max(1, size/16) {
		for b, _ := buffers.Get(size); b != nil; b, _ = buffers.Get(size) {
			kept = append(kept, b)
		}
	}
	return kept
}

// edgeFloats are the values where a float encoder can go wrong: the
// boundaries of the %e notation (1e-6 and 1e21), two- and three-digit
// exponents, negative zero, subnormals and the extremes.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.999999999999999e-7, 1e-7, 1.5e-7, 1e-10, 1.5e-10, 1e-100,
	1e21, 9.999999999999999e20, 1e20, 1.5e21, 1e22, 1e100, 123456789012345680000,
	5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, 0.8414709848078965, 1.0 / 3, math.Pi * 1e15, 4503599627370497.5,
}

func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return edgeFloats[rng.Intn(len(edgeFloats))]
	case 1:
		return math.Float64frombits(rng.Uint64()) // any bit pattern, NaN and Inf filtered by the caller
	case 2:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
	default:
		return float64(rng.Intn(2001) - 1000)
	}
}

func randomMatrix(rng *rand.Rand) Matrix {
	rows, cols := 1+rng.Intn(40), 1+rng.Intn(40)
	switch rng.Intn(4) {
	case 0:
		rows = 1
	case 1:
		cols = 1
	}
	return finiteMatrix(rng, rows, cols)
}

// finiteMatrix is rows×cols of randomFloat's values that JSON can carry.
func finiteMatrix(rng *rand.Rand, rows, cols int) Matrix {
	m := Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
	for i := range m.Data {
		for m.Data[i] = randomFloat(rng); !finite(m.Data[i]); {
			m.Data[i] = randomFloat(rng)
		}
	}
	return m
}

func sameBits(t *testing.T, what string, got, want Matrix) {
	t.Helper()
	if err := matrixDiff(got, want); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// TestRoundTripProperty: over random shapes (1×N and N×1 included) and
// values (the %e boundaries, -0, subnormals, arbitrary bit patterns), a
// request as encoding/json writes it decodes back to exactly the values that
// went in, and so does the text the index finds in a response.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	edge := Matrix{Rows: 1, Cols: len(edgeFloats), Data: edgeFloats}
	for iter := 0; iter < 300; iter++ {
		req := Request{Op: "add", Inputs: []Matrix{edge}}
		if iter > 0 {
			req.Inputs = []Matrix{randomMatrix(rng), randomMatrix(rng)}[:1+rng.Intn(2)]
		}
		if rng.Intn(2) == 0 {
			req.Attrs = map[string]float64{"alpha": randomMatrix(rng).Data[0], "steps": 4}
			req.TimeoutMs = rng.Intn(5000)
		}
		body, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeRequest(body)
		if err != nil {
			t.Fatal(err)
		}
		if back.Op != req.Op || back.TimeoutMs != req.TimeoutMs || len(back.Inputs) != len(req.Inputs) || len(back.Attrs) != len(req.Attrs) {
			t.Fatalf("request came back as %+v", back)
		}
		for i := range req.Inputs {
			sameBits(t, "input", back.Inputs[i], req.Inputs[i])
		}
		for k, x := range req.Attrs {
			if math.Float64bits(back.Attrs[k]) != math.Float64bits(x) {
				t.Fatalf("attr %s came back as %v, want %v", k, back.Attrs[k], x)
			}
		}

		// A reply is never decoded outside tests: the router indexes it and
		// copies the output's text, which must read back as the same values.
		resp := Response{Output: req.Inputs[0], HLOPs: rng.Intn(64), MakespanSeconds: rng.Float64(), BatchSize: 1 + rng.Intn(16)}
		rep, err := indexReply(viaJSON(t, &resp))
		if err != nil {
			t.Fatal(err)
		}
		out := Matrix{Rows: rep.Rows, Cols: rep.Cols}
		if err := json.Unmarshal(append(rep.Data.AppendTo([]byte{'['}, 0, rep.Data.Len()), ']'), &out.Data); err != nil {
			t.Fatal(err)
		}
		sameBits(t, "output", out, resp.Output)
		if math.Float64bits(rep.MakespanSeconds) != math.Float64bits(resp.MakespanSeconds) {
			t.Fatalf("makespan_seconds read back as %v, want %v", rep.MakespanSeconds, resp.MakespanSeconds)
		}
	}
}
