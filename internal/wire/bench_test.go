package wire

import (
	"encoding/json"
	"math"
	"math/rand"
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
