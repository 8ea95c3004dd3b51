package wire

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"testing"
)

// benchBody is a two-input side×side request as encoding/json writes it:
// full-precision values, the shape serve_wire sends.
func benchBody(tb testing.TB, side int) []byte {
	rng := rand.New(rand.NewSource(1))
	req := Request{Op: "add"}
	for k := 0; k < 2; k++ {
		m := Matrix{Rows: side, Cols: side, Data: make([]float64, side*side)}
		for i := range m.Data {
			m.Data[i] = math.Sin(rng.Float64() * 100)
		}
		req.Inputs = append(req.Inputs, m)
	}
	body, err := json.Marshal(&req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkDecodeRequest compares the ways a tier can read a 2×256² request:
// encoding_json is what both tiers did; decode is DecodeRequest, the backend's
// read of every request it executes; head is PeekRequest, the router's read of
// every request it places — the opcode and the first shape, then it stops;
// index is IndexRequest, the full validation that converts nothing, which the
// router runs only on a request it is about to scatter.
func BenchmarkDecodeRequest(b *testing.B) {
	body := benchBody(b, 256)
	b.Run("encoding_json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req legacyRequest
			if err := json.Unmarshal(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeRequest(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("head", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := PeekRequest(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("index", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := IndexRequest(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWriteResponse compares the two ways of answering a 200: json_oracle
// is writeResponseJSON, json.NewEncoder into the recycled buffer, what
// WriteResponse did and what its bytes are still held to; writer is
// WriteResponse. The replies are the harness's: a dense 256² sum of sines
// (every element 16 or 17 digits), a relu of 384² (half of them 0) and a 64²
// one, where the fixed cost shows.
func BenchmarkWriteResponse(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	reply := func(side int, relu bool) *Response {
		m := Matrix{Rows: side, Cols: side, Data: make([]float64, side*side)}
		for i := range m.Data {
			m.Data[i] = math.Sin(rng.Float64()*100) + math.Sin(rng.Float64()*100)
			if relu {
				m.Data[i] = max(m.Data[i], 0)
			}
		}
		return &Response{Output: m, HLOPs: 4, MakespanSeconds: 0.00125, BatchSize: 1}
	}
	for _, tc := range []struct {
		name string
		resp *Response
	}{
		{"dense256", reply(256, false)},
		{"relu384", reply(384, true)},
		{"dense64", reply(64, false)},
	} {
		for _, impl := range []struct {
			name  string
			write func(http.ResponseWriter, string, *Response) error
		}{{"json_oracle", writeResponseJSON}, {"writer", WriteResponse}} {
			b.Run(tc.name+"/"+impl.name, func(b *testing.B) {
				b.ReportAllocs()
				w := discardWriter{http.Header{}}
				for i := 0; i < b.N; i++ {
					if err := impl.write(w, "add", tc.resp); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// discardWriter is a ResponseWriter that keeps the headers and drops the body.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header         { return w.h }
func (w discardWriter) WriteHeader(int)             {}
func (w discardWriter) Write(p []byte) (int, error) { return len(p), nil }
