package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"shmt/internal/hlop"
	"shmt/internal/tensor"
	"shmt/internal/wire"
)

// oracleScatter is the scatter path the router had before it spliced text,
// kept as the reference: decode the request into tensors, partition them,
// marshal each partition (wire.FromTensor gathers a strided block), decode
// each reply, gather the blocks into an output tensor and encode that. It runs the partitions on one
// backend, in order; placement does not change results
// (TestScatterPlacementInvariance).
func oracleScatter(t *testing.T, body []byte, fanout int, backend string, makespanSeconds float64) []byte {
	t.Helper()
	req, err := wire.DecodeRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	v, err := req.VOP()
	if err != nil {
		t.Fatal(err)
	}
	parts, err := hlop.Partition(v, hlop.Spec{TargetPartitions: fanout})
	if err != nil {
		t.Fatal(err)
	}
	rows, cols := v.OutputShape()
	out := tensor.NewMatrix(rows, cols)
	for i, h := range parts {
		preq := wire.Request{Op: h.Op.String(), Attrs: h.Attrs}
		for _, in := range h.Inputs {
			preq.Inputs = append(preq.Inputs, wire.FromTensor(in))
		}
		pbody, err := json.Marshal(&preq)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post("http://"+backend+"/v1/execute", "application/json", bytes.NewReader(pbody))
		if err != nil {
			t.Fatal(err)
		}
		var pres wire.Response
		err = json.NewDecoder(resp.Body).Decode(&pres)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("oracle partition %d: status %d, %v", i, resp.StatusCode, err)
		}
		block, err := tensor.FromSlice(pres.Output.Rows, pres.Output.Cols, pres.Output.Data)
		if err != nil {
			t.Fatal(err)
		}
		if err := tensor.CopyIn(out, h.Region, block); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	err = wire.WriteResponse(rec, req.Op, &wire.Response{Output: wire.FromTensor(out), HLOPs: len(parts), MakespanSeconds: makespanSeconds, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	return rec.Body.Bytes()
}

// matrixJSON writes a rows×cols matrix of positive, full-precision values;
// each element is formatted by format.
func matrixJSON(rows, cols, salt int, format func(i int, x float64) string) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"rows":%d,"cols":%d,"data":[`, rows, cols)
	for i := 0; i < rows*cols; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(format(i, 0.5+float64((i*37+salt*11)%1013)/7))
	}
	b.WriteString("]}")
	return b.String()
}

func shortest(_ int, x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

var makespanField = regexp.MustCompile(`"makespan_seconds":([^,]+),`)

// TestSplicedReplyIsTheDecodedReply: for every scatter-eligible kind of
// opcode and every partition geometry, and for bodies a canonical encoder
// would never write, the reply the router splices from text is byte for byte
// the reply the decode → partition → encode → decode → gather → encode path
// produces.
func TestSplicedReplyIsTheDecodedReply(t *testing.T) {
	var backends []string
	for i := 0; i < 5; i++ {
		backends = append(backends, newSessionBackend(t))
	}
	routers := map[int]string{}
	for _, fanout := range []int{2, 4} {
		_, ts := newTestRouter(t, RouterConfig{
			Seeds:            backends[:fanout],
			ScatterThreshold: 64,
			MaxFanout:        fanout,
			Pool:             PoolConfig{ProbeInterval: time.Hour},
		})
		routers[fanout] = ts.URL
	}

	m := func(rows, cols, salt int) string { return matrixJSON(rows, cols, salt, shortest) }
	request := func(op string, inputs ...string) string {
		return `{"op":"` + op + `","inputs":[` + strings.Join(inputs, ",") + `]}`
	}
	spaced := strings.NewReplacer(",", " ,\n\t", "[", "[ ", "]", " ]", ":", " : ")
	cases := []struct {
		name   string
		body   string
		fanout int
		parts  int
	}{
		{"relu", request("relu", m(64, 48, 1)), 2, 2},
		{"relu, ragged last band", request("relu", m(67, 48, 1)), 4, 4}, // bands of 22 rows and one of 1
		{"add", request("add", m(64, 64, 1), m(64, 64, 2)), 4, 4},
		{"tanh, single column", request("tanh", m(4096, 1, 3)), 2, 2},
		{"parabolic_PDE with attrs", `{"attrs":{"sigma":0.25,"t":2},"op":"parabolic_PDE","inputs":[` + m(64, 32, 1) + "," + m(64, 32, 5) + `]}`, 2, 2},
		{"GEMM, shared B", request("GEMM", m(96, 64, 1), m(64, 48, 2)), 4, 4},
		{"GEMM, ragged", request("GEMM", m(50, 16, 1), m(16, 24, 2)), 4, 5},
		{"FFT per row", request("FFT", m(64, 128, 1)), 2, 2},
		{"DCT8x8 tiles, fanout 2", request("DCT8x8", m(128, 128, 1)), 2, 4},
		{"DCT8x8 tiles, fanout 4", request("DCT8x8", m(128, 128, 1)), 4, 4},
		{"DCT8x8 tiles, ragged", request("DCT8x8", m(136, 72, 1)), 4, 6},
		{"whitespace between tokens", spaced.Replace(request("add", m(64, 64, 1), m(64, 64, 2))), 2, 2},
		{"null elements", request("relu", matrixJSON(64, 48, 1, func(i int, x float64) string {
			if i%5 == 0 {
				return "null"
			}
			return shortest(i, x)
		})), 2, 2},
		{"1e0-style tokens", request("sqrt", matrixJSON(64, 48, 1, func(i int, x float64) string {
			switch i % 3 {
			case 0:
				return strconv.FormatFloat(x, 'e', 20, 64) // more digits than the value has
			case 1:
				return strconv.FormatFloat(float64(int(x)), 'f', 2, 64) + "E+0"
			}
			return "1e0"
		})), 2, 2},
		{"data before rows and cols", `{"inputs":[{"data":` + dataOf(m(64, 64, 1)) + `,"cols":64,"rows":64},{"cols":64,"data":` + dataOf(m(64, 64, 2)) + `,"rows":64}],"op":"add"}`, 2, 2},
		{"DCT8x8 tiles, whitespace and data first", spaced.Replace(`{"inputs":[{"data":` + dataOf(m(128, 128, 4)) + `,"rows":128,"cols":128}],"op":"DCT8x8"}`), 2, 4},
	}
	for _, tc := range cases {
		resp, got := postExecute(t, routers[tc.fanout], tc.body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d: %.300s", tc.name, resp.StatusCode, got)
			continue
		}
		if parts := resp.Header.Get(ScatterHeader); parts != strconv.Itoa(tc.parts) {
			t.Errorf("%s: scattered into %q partitions, want %d", tc.name, parts, tc.parts)
			continue
		}
		if resp.Header.Get("Content-Length") != strconv.Itoa(len(got)) {
			t.Errorf("%s: Content-Length %q for %d bytes", tc.name, resp.Header.Get("Content-Length"), len(got))
		}
		// The makespan is composed from the partition replies as the
		// backends ran them (TestScatteredMakespanIsVirtual); the oracle,
		// which runs every partition on one backend, encodes the router's.
		ms := makespanField.FindSubmatch(got)
		if ms == nil {
			t.Errorf("%s: no makespan_seconds in %.200s", tc.name, got)
			continue
		}
		makespan, err := strconv.ParseFloat(string(ms[1]), 64)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleScatter(t, []byte(tc.body), tc.fanout, backends[4], makespan); !bytes.Equal(got, want) {
			t.Errorf("%s: spliced reply differs from the decoded one\n got %.400s\nwant %.400s", tc.name, got, want)
		}
	}
}

// dataOf is the data array of a matrix matrixJSON wrote.
func dataOf(matrix string) string {
	return matrix[strings.Index(matrix, "[") : strings.LastIndex(matrix, "]")+1]
}

// TestScatterFailureDoesNotWaitForSiblings: a partition that fails for good
// cancels the others, so the client's error arrives when the failure does,
// not when the slowest leg finishes.
func TestScatterFailureDoesNotWaitForSiblings(t *testing.T) {
	refusing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			wire.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
			return
		}
		wire.WriteError(w, http.StatusUnprocessableEntity, "refused on principle")
	}))
	t.Cleanup(refusing.Close)
	slow := newSlowBackend(t, 5*time.Second)
	rt, ts := newTestRouter(t, RouterConfig{
		Seeds:            []string{strings.TrimPrefix(refusing.URL, "http://"), slow.addr()},
		ScatterThreshold: 1024,
		MaxFanout:        2,
		Pool:             PoolConfig{ProbeInterval: time.Hour},
	})
	start := time.Now()
	resp, body := postExecute(t, ts.URL, addBody(64), nil)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), "refused on principle") {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("the 422 took %v: it waited for the slow partition", elapsed)
	}
	if healthy := len(rt.pool.Healthy()); healthy != 2 {
		t.Fatalf("%d of 2 backends healthy afterwards: a cancelled partition indicted its backend", healthy)
	}
}
