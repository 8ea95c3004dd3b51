package shmt_test

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§5). Each benchmark regenerates its experiment at a
// reduced input size (fast enough for `go test -bench=.`) and reports the
// headline quantity the paper reports through b.ReportMetric, so a bench run
// doubles as a compact reproduction summary:
//
//	go test -bench=. -benchmem
//
// The full-size paper-style tables come from `go run ./cmd/shmtbench`.

import (
	"math"
	"testing"

	"shmt"
	"shmt/internal/bench"
)

// benchOpts keeps testing.B iterations tractable on one core.
func benchOpts() bench.Options {
	return bench.Options{Side: 256, Partitions: 16, Seed: 1}
}

// BenchmarkFig2Potential regenerates Fig. 2: per-kernel Edge-TPU potential
// and the theoretical SHMT gain. Reported metric: geomean theoretical
// speedup (the paper reports 3.14x at full scale).
func BenchmarkFig2Potential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig2(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].SHMTTheoretical, "theoretical-gmean")
	}
}

// BenchmarkFig6Speedup regenerates Fig. 6's headline comparison: basic work
// stealing vs QAWS-TS speedup over the GPU baseline (paper: 2.07x / 1.95x).
func BenchmarkFig6Speedup(b *testing.B) {
	pols := []shmt.PolicyName{shmt.PolicyWorkStealing, shmt.PolicyQAWSTS}
	for i := 0; i < b.N; i++ {
		m, err := bench.RunMatrix(pols, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		ws := m.GeoMean(shmt.PolicyWorkStealing, func(c *bench.Cell) float64 { return c.Speedup }, false)
		qaws := m.GeoMean(shmt.PolicyQAWSTS, func(c *bench.Cell) float64 { return c.Speedup }, false)
		b.ReportMetric(ws, "ws-speedup")
		b.ReportMetric(qaws, "qaws-ts-speedup")
	}
}

// BenchmarkFig7MAPE regenerates Fig. 7's quality comparison: Edge-TPU-only
// vs work-stealing vs QAWS-TS MAPE (paper: 5.15% / 2.85% / 1.98%).
func BenchmarkFig7MAPE(b *testing.B) {
	pols := []shmt.PolicyName{shmt.PolicyTPUOnly, shmt.PolicyWorkStealing, shmt.PolicyQAWSTS}
	for i := 0; i < b.N; i++ {
		m, err := bench.RunMatrix(pols, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*m.GeoMean(shmt.PolicyTPUOnly, func(c *bench.Cell) float64 { return c.MAPE }, false), "tpu-mape-%")
		b.ReportMetric(100*m.GeoMean(shmt.PolicyWorkStealing, func(c *bench.Cell) float64 { return c.MAPE }, false), "ws-mape-%")
		b.ReportMetric(100*m.GeoMean(shmt.PolicyQAWSTS, func(c *bench.Cell) float64 { return c.MAPE }, false), "qaws-mape-%")
	}
}

// BenchmarkFig8SSIM regenerates Fig. 8: SSIM of QAWS-TS over the six image
// benchmarks (paper: 0.9916).
func BenchmarkFig8SSIM(b *testing.B) {
	pols := []shmt.PolicyName{shmt.PolicyQAWSTS}
	for i := 0; i < b.N; i++ {
		m, err := bench.RunMatrix(pols, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(m.GeoMean(shmt.PolicyQAWSTS, func(c *bench.Cell) float64 { return c.SSIM }, true), "qaws-ssim")
	}
}

// BenchmarkFig9SamplingRate regenerates Fig. 9's sweep for Sobel at three
// rates and reports the MAPE at the sparsest and densest rate (the knee).
func BenchmarkFig9SamplingRate(b *testing.B) {
	bm, _ := bench.ByName("Sobel")
	for i := 0; i < b.N; i++ {
		t, err := bench.NewTrial(bm, benchOpts(), true)
		if err != nil {
			b.Fatal(err)
		}
		var mapes []float64
		for _, lg := range []int{-21, -17, -14} {
			cfg := t.Options.SessionConfig(bm, shmt.PolicyQAWSTS)
			cfg.SamplingRate = math.Pow(2, float64(lg))
			c, err := t.Score(t.Execute(cfg))
			if err != nil {
				b.Fatal(err)
			}
			mapes = append(mapes, c.MAPE)
		}
		b.ReportMetric(100*mapes[0], "mape-sparse-%")
		b.ReportMetric(100*mapes[len(mapes)-1], "mape-dense-%")
	}
}

// BenchmarkFig10Energy regenerates Fig. 10: SHMT energy and EDP relative to
// the GPU baseline (paper: -51.0% energy, -78.0% EDP).
func BenchmarkFig10Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := bench.RunMatrix([]shmt.PolicyName{shmt.PolicyQAWSTS}, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		rows := m.Fig10()
		gm := rows[len(rows)-1]
		b.ReportMetric(gm.SavedPct, "energy-saved-%")
		b.ReportMetric(100*(1-gm.SHMTEDP), "edp-saved-%")
	}
}

// BenchmarkFig11Memory regenerates Fig. 11: SHMT peak-footprint ratio over
// the GPU baseline (paper gmean: 0.986).
func BenchmarkFig11Memory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := bench.RunMatrix([]shmt.PolicyName{shmt.PolicyQAWSTS}, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		rows := m.Fig11()
		b.ReportMetric(rows[len(rows)-1].Ratio, "footprint-ratio")
	}
}

// BenchmarkFig12ProblemSize regenerates Fig. 12's trend: QAWS-TS speedup at
// a small and a large problem size (the paper's speedup grows with size).
func BenchmarkFig12ProblemSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig12(bench.Options{Seed: 1, Partitions: 16}, []int{64, 512})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].GMean, "speedup-4K")
		b.ReportMetric(rows[1].GMean, "speedup-256K")
	}
}

// BenchmarkTable3Communication regenerates Table 3: communication overhead
// under QAWS-TS (paper gmean: 0.71%).
func BenchmarkTable3Communication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := bench.RunMatrix([]shmt.PolicyName{shmt.PolicyQAWSTS}, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		rows := m.Table3()
		b.ReportMetric(rows[len(rows)-1].OverheadPct, "comm-overhead-%")
	}
}

// BenchmarkEngineSession measures the raw engine throughput: one Sobel VOP
// end-to-end under QAWS-TS (the wall time here is host simulation cost, not
// the virtual latency the figures report).
func BenchmarkEngineSession(b *testing.B) {
	s, err := shmt.NewSession(shmt.Config{Policy: shmt.PolicyQAWSTS, TargetPartitions: 16})
	if err != nil {
		b.Fatal(err)
	}
	bm, _ := bench.ByName("Sobel")
	inputs := bm.Inputs(256, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Execute(shmt.OpSobel, inputs, nil); err != nil {
			b.Fatal(err)
		}
	}
}
