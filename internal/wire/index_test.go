package wire

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// regionOf is the reference for a spliced input: region reg of m, copied out
// of the decoded values.
func regionOf(m Matrix, reg tensor.Region) Matrix {
	out := Matrix{Rows: reg.Height, Cols: reg.Width, Data: make([]float64, 0, reg.Len())}
	for r := reg.Row; r < reg.Row+reg.Height; r++ {
		out.Data = append(out.Data, m.Data[r*m.Cols+reg.Col:r*m.Cols+reg.Col+reg.Width]...)
	}
	return out
}

// probeRegions are the shapes a scatter cuts: everything, the first row, a
// band of whole rows to the bottom edge, and a tile that touches no edge it
// can avoid.
func probeRegions(rows, cols int) []tensor.Region {
	return []tensor.Region{
		{Height: rows, Width: cols},
		{Height: 1, Width: cols},
		{Row: rows / 2, Height: rows - rows/2, Width: cols},
		{Row: rows / 3, Col: cols / 3, Height: (rows + 2) / 3, Width: (cols + 2) / 3},
	}
}

// checkSplice holds the index to its contract on one body: checkIndex's half
// — it is the decoder in what it accepts and in the header it reports — and a
// partition spliced from it decodes to that region of what the body decodes
// to, bit for bit — attrs included, timeout_ms left out.
func checkSplice(t *testing.T, body []byte) {
	t.Helper()
	ix, full := checkIndex(t, body)
	if ix == nil || len(full.Inputs) == 0 {
		return
	}
	for _, m := range full.Inputs {
		if len(m.Data) == 0 {
			return // nothing to cut a region from; such a VOP never scatters
		}
	}
	for p := 0; p < 4; p++ {
		regs := make([]tensor.Region, len(full.Inputs))
		for k, m := range full.Inputs {
			regs[k] = probeRegions(m.Rows, m.Cols)[(p+k)%4]
		}
		spliced := ix.AppendPartition(nil, vop.OpAdd, regs)
		got, err := DecodeRequest(spliced)
		if err != nil {
			t.Fatalf("%q: regions %v spliced to %q: %v", body, regs, spliced, err)
		}
		want := legacyRequest{Op: "add", Attrs: full.Attrs}
		for k, m := range full.Inputs {
			want.Inputs = append(want.Inputs, legacyMatrix(regionOf(m, regs[k])))
		}
		if err := sameRequest(got, &want); err != nil {
			t.Fatalf("%q: regions %v spliced to %q: %v", body, regs, spliced, err)
		}
	}
}

// FuzzSpliceRequest: the router's one full scan of a request it scatters is
// the decoder in all but the conversion, and whatever gets past it the router
// can cut into partitions that mean what the client meant.
func FuzzSpliceRequest(f *testing.F) {
	addSeeds(f, spliceBodies...)
	f.Fuzz(func(t *testing.T, body []byte) { checkSplice(t, body) })
}

// spliceBodies are what a client may write that a canonical encoder never
// does: whitespace wherever JSON allows it, null elements, tokens that are
// not the shortest for their value, data before the shape, attrs of every
// kind, duplicate data.
var spliceBodies = []string{
	"{\"op\":\"add\",\"inputs\":[{\"rows\":2,\"cols\":3,\"data\":[ 1 ,\n2\t,3 , 4,5 ,6 \r\n]}]}",
	`{"op":"add","inputs":[{"rows":3,"cols":3,"data":[1,null,3,null,null,6,7,8,null]}]}`,
	`{"op":"add","inputs":[{"rows":2,"cols":2,"data":[1e0,-0.0,1.50,2E+0]},{"rows":2,"cols":2,"data":[0.1e1,100e-2,-0,5e-324]}]}`,
	`{"op":"add","inputs":[{"data":[1,2,3,4,5,6,7,8,9,10,11,12],"cols":3,"rows":4},{"cols":3,"data":[1,2,3,4,5,6,7,8,9,10,11,12],"rows":4}]}`,
	`{"attrs":{"alpha":0.25,"st\u0065ps":4,"z":null},"inputs":[{"rows":4,"cols":4,"data":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]}],"op":"add","timeout_ms":70}`,
	`{"op":"add","inputs":[{"rows":1,"cols":1,"data":[7]}],"attrs": null }`,
	`{"op":"add","inputs":[{"rows":1,"cols":2,"data":[1,2],"data":[3,4]}]}`,
	`{"op":"GEMM","inputs":[{"rows":2,"cols":3,"data":[1,2,3,4,5,6]},{"rows":3,"cols":1,"data":[1,2,3]}]}`,
}

// TestIndexLocatesEveryElement pins the index on a body with every
// irregularity at once: offsets point at tokens, runs come back without the
// separators around them, attrs are kept as written.
func TestIndexLocatesEveryElement(t *testing.T) {
	body := []byte(`{"inputs":[{"data":[ 1e0 , null,3 ,4 ],"rows":2,"cols":2},{"rows":0,"cols":0,"data":[]}],"attrs": {"a" : 1} ,"op":"relu"}`)
	ix, err := IndexRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.Data) != 2 || ix.Data[0].Len() != 4 || ix.Data[1].Len() != 0 || string(ix.attrs) != `{"a" : 1}` {
		t.Fatalf("indexed %d arrays, attrs %q", len(ix.Data), ix.attrs)
	}
	d := ix.Data[0]
	for _, tc := range []struct {
		i, j int
		want string
	}{{0, 4, "1e0 , null,3 ,4"}, {0, 1, "1e0"}, {1, 3, "null,3"}, {3, 4, "4"}} {
		if got := string(d.AppendTo(nil, tc.i, tc.j)); got != tc.want {
			t.Errorf("elements [%d,%d) = %q, want %q", tc.i, tc.j, got, tc.want)
		}
	}
	if got := string(d.AppendRegion(nil, 2, tensor.Region{Col: 1, Height: 2, Width: 1})); got != "null,4" {
		t.Errorf("column 1 = %q", got)
	}
	got := string(ix.AppendPartition(nil, vop.OpRelu, []tensor.Region{{Row: 1, Height: 1, Width: 2}}))
	if want := `{"op":"relu","inputs":[{"rows":1,"cols":2,"data":[3 ,4]}],"attrs":{"a" : 1}}`; got != want {
		t.Errorf("partition %s, want %s", got, want)
	}
}

// TestSpliceBodies runs the fuzz target's check over random canonical
// requests too, at shapes big enough for every probe region to differ.
func TestSpliceBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for iter := 0; iter < 200; iter++ {
		req := Request{Op: "add", Inputs: []Matrix{randomMatrix(rng), randomMatrix(rng)}[:1+rng.Intn(2)]}
		if rng.Intn(2) == 0 {
			req.Attrs = map[string]float64{"alpha": randomMatrix(rng).Data[0], "steps": 4}
		}
		checkSplice(t, viaJSON(t, &req))
	}
}

// TestNewPost: the request a partition goes out in is the spliced body with
// timeout_ms as its last member, has its length, and can be sent again.
func TestNewPost(t *testing.T) {
	body := (&Body{buf: bytes.NewBufferString(`{"op":"relu","inputs":[{"rows":1,"cols":2,"data":[1,-2]}],"attrs":{"a":1}}`)})
	hr, err := NewPost(context.Background(), "http://backend/v1/execute", body, 250)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"op":"relu","inputs":[{"rows":1,"cols":2,"data":[1,-2]}],"attrs":{"a":1},"timeout_ms":250}`
	for attempt := 0; attempt < 2; attempt++ {
		rc, err := hr.GetBody()
		if err != nil {
			t.Fatal(err)
		}
		sent, _ := io.ReadAll(rc)
		if string(sent) != want || hr.ContentLength != int64(len(want)) {
			t.Fatalf("sent %s (Content-Length %d), want %s", sent, hr.ContentLength, want)
		}
	}
	if req, err := DecodeRequest([]byte(want)); err != nil || req.TimeoutMs != 250 {
		t.Fatalf("%+v, %v", req, err)
	}
}

// reply is the *http.Response a backend's 200 with this body arrives as.
func reply(body []byte) *http.Response {
	return &http.Response{Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body))}
}

// TestWriteGatheredIsWriteResponse: splicing the partitions' replies yields
// the bytes WriteResponse encodes for the gathered tensor — for bands of
// whole rows and for ragged tiles — and every buffer goes back.
func TestWriteGatheredIsWriteResponse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	out := Matrix{Rows: 5, Cols: 7, Data: make([]float64, 35)}
	for i := range out.Data {
		out.Data[i] = randomMatrix(rng).Data[0]
	}
	for name, regs := range map[string][]tensor.Region{
		"one":   {{Height: 5, Width: 7}},
		"bands": {{Height: 2, Width: 7}, {Row: 2, Height: 2, Width: 7}, {Row: 4, Height: 1, Width: 7}},
		"tiles": {{Height: 3, Width: 4}, {Col: 4, Height: 3, Width: 3}, {Row: 3, Height: 2, Width: 4}, {Row: 3, Col: 4, Height: 2, Width: 3}},
	} {
		parts := make([]Part, len(regs))
		for i, reg := range regs {
			// A backend's reply to the partition, annexes and all.
			rep, err := ReadReply(reply(viaJSON(t, &Response{Output: regionOf(out, reg), HLOPs: 3, MakespanSeconds: 0.5, BatchSize: 2, Trace: &Trace{TraceID: "x"}})))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if rep.Rows != reg.Height || rep.Cols != reg.Width {
				t.Fatalf("%s: reply is %dx%d for %v", name, rep.Rows, rep.Cols, reg)
			}
			parts[i] = Part{Region: reg, Reply: rep}
		}
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		WriteGathered(got, out.Rows, out.Cols, parts, 1.25e-7)
		if err := WriteResponse(want, "add", &Response{Output: out, HLOPs: len(regs), MakespanSeconds: 1.25e-7, BatchSize: 1}); err != nil {
			t.Fatal(err)
		}
		if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) || got.Header().Get("Content-Length") != want.Header().Get("Content-Length") {
			t.Errorf("%s:\n got %d %s\nwant %s", name, got.Code, got.Body, want.Body)
		}
		for _, p := range parts {
			p.Reply.Release()
		}
	}
	if _, err := ReadReply(reply([]byte(`{"output":{"rows":1,"cols":2,"data":[1]}}`))); err == nil {
		t.Error("a reply whose shape and data disagree was accepted")
	}
}

// stalled is a body that has declared its length and sends nothing.
type stalled struct{}

func (stalled) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }

// TestDeclaredLengthReservesAtMostTheCap: a body that declares MaxBodyBytes
// and never sends them costs maxPooledBytes of buffer, not 256 MiB; one that
// declares little is still read into a single allocation.
func TestDeclaredLengthReservesAtMostTheCap(t *testing.T) {
	drainBuffers()
	if _, err := fill(stalled{}, MaxBodyBytes); err == nil {
		t.Fatal("the stalled body was read")
	}
	kept := drainBuffers() // the reservation went back on the list, beside the miss's spare
	if len(kept) != 2 {
		t.Fatalf("declaring %d bytes left %d buffers on the list, want the reservation and its spare", MaxBodyBytes, len(kept))
	}
	for _, b := range kept {
		if b.Cap() < maxPooledBytes || b.Cap() > maxPooledBytes+maxPooledBytes/8 {
			t.Fatalf("declaring %d bytes reserved %d, want about %d bytes", MaxBodyBytes, b.Cap(), maxPooledBytes)
		}
	}
	small := bytes.Repeat([]byte("x"), 1000)
	buf, err := fill(bytes.NewReader(small), int64(len(small)))
	if err != nil || !bytes.Equal(buf.Bytes(), small) {
		t.Fatalf("read %v, %v", buf, err)
	}
	if c := buf.Cap(); c > 2*len(small)+bytes.MinRead {
		t.Fatalf("a %d-byte body sits in %d bytes", len(small), c)
	}
}
