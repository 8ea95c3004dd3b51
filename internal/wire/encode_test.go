package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"

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
	m := Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
	for i := range m.Data {
		for {
			if m.Data[i] = randomFloat(rng); nonFinite(m.Data[i:i+1]) < 0 {
				break
			}
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
		rows, cols, data, err := indexReply(viaJSON(t, &resp))
		if err != nil {
			t.Fatal(err)
		}
		out := Matrix{Rows: rows, Cols: cols}
		if err := json.Unmarshal(append(data.AppendTo([]byte{'['}, 0, data.Len()), ']'), &out.Data); err != nil {
			t.Fatal(err)
		}
		sameBits(t, "output", out, resp.Output)
	}
}
