package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"shmt"
	"shmt/internal/serve"
	"shmt/internal/wire"
)

// BenchmarkScatter times one scattered request end to end, in process: the
// router in front of two serve.Servers on loopback, each of the three
// partition geometries (row bands, row bands with a shared operand, tiles) at
// 256², values at full precision as cluster_mixed sends them. -benchmem puts
// the router's and the backends' allocations per scattered request on record.
func BenchmarkScatter(b *testing.B) {
	var seeds []string
	for i := 0; i < 2; i++ {
		sess, err := shmt.NewSession(shmt.Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		srv := serve.New(sess, serve.Config{MaxLinger: time.Millisecond})
		ts := httptest.NewServer(srv.Handler())
		b.Cleanup(func() {
			ts.Close()
			srv.Shutdown(context.Background())
			sess.Close()
		})
		seeds = append(seeds, strings.TrimPrefix(ts.URL, "http://"))
	}
	rt, err := NewRouter(RouterConfig{Seeds: seeds, ScatterThreshold: 1 << 16, MaxFanout: 2, Pool: PoolConfig{ProbeInterval: time.Hour}})
	if err != nil {
		b.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	b.Cleanup(func() {
		front.Close()
		rt.pool.Close()
	})

	rng := rand.New(rand.NewSource(1))
	matrix := func() wire.Matrix {
		m := wire.Matrix{Rows: 256, Cols: 256, Data: make([]float64, 256*256)}
		for i := range m.Data {
			m.Data[i] = math.Sin(rng.Float64() * 100)
		}
		return m
	}
	for _, tc := range []struct {
		op     string
		inputs int
	}{{"relu", 1}, {"GEMM", 2}, {"DCT8x8", 1}} {
		req := wire.Request{Op: tc.op}
		for k := 0; k < tc.inputs; k++ {
			req.Inputs = append(req.Inputs, matrix())
		}
		body, err := json.Marshal(&req)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.op, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resp, err := http.Post(front.URL+"/v1/execute", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				n, _ := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || resp.Header.Get(ScatterHeader) == "" || n == 0 {
					b.Fatalf("status %d, scatter %q, %d bytes", resp.StatusCode, resp.Header.Get(ScatterHeader), n)
				}
			}
		})
	}
}
