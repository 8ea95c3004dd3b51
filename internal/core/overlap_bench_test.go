package core

import (
	"math/rand"
	"testing"

	"shmt/internal/device"
	"shmt/internal/device/cpu"
	"shmt/internal/device/tpu"
	"shmt/internal/hlop"
	"shmt/internal/sched"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// BenchmarkOverlap measures the wall-clock cost of the Edge TPU's
// private-memory staging path with the input prefetcher off ("staged": every
// operand materialized and quantized at dispatch) versus on, under both pick
// loops. The banded GEMM partitioning gives every HLOP the same right-hand
// matrix, so with the prefetcher on it is quantized once per run instead of
// once per HLOP. On the default loop that resident reuse is the prefetcher's
// whole contribution ("resident"): whole HLOPs run on the host pool, which
// already overlaps one HLOP's staging with another's kernel. On the
// concurrent loop ("concurrent/prefetched") HLOP k+1's operands are also
// prestaged on the worker pool while HLOP k executes. Outputs are
// bit-identical every way (TestPropertyPrefetchBitIdentity).
func BenchmarkOverlap(b *testing.B) {
	const side = 512
	r := rand.New(rand.NewSource(42))
	a := tensor.NewMatrix(side, side)
	bm := tensor.NewMatrix(side, side)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	for i := range bm.Data {
		bm.Data[i] = r.NormFloat64()
	}

	for _, bc := range []struct {
		name       string
		depth      int
		concurrent bool
	}{
		{"staged", 0, false},
		{"resident", 2, false},
		{"concurrent/staged", 0, true},
		{"concurrent/prefetched", 2, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			reg, err := device.NewRegistry(cpu.New(1), tpu.New(tpu.Config{}))
			if err != nil {
				b.Fatal(err)
			}
			e := &Engine{Reg: reg, Policy: sched.SingleDevice{Device: "tpu"},
				Spec:         hlop.Spec{TargetPartitions: 16, MinTile: 8},
				DoubleBuffer: true, Prefetch: bc.depth, Concurrent: bc.concurrent}
			b.SetBytes(2 * side * side * 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, err := vop.New(vop.OpGEMM, a, bm)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := e.Run(v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
