package core

import (
	"math/rand"
	"testing"

	"shmt/internal/device"
	"shmt/internal/device/cpu"
	"shmt/internal/device/tpu"
	"shmt/internal/hlop"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// BenchmarkOverlap measures the wall-clock cost of the Edge TPU's
// private-memory staging path with the resident shared-operand cache off
// ("staged": every operand materialized and quantized inside each HLOP's
// compute) versus on ("resident"). The banded GEMM partitioning gives every
// HLOP the same right-hand matrix, so with the cache on it is quantized once
// per run instead of once per HLOP. Whole HLOPs run on the host pool either
// way, which already overlaps one HLOP's staging with another's kernel.
// Outputs are bit-identical both ways (TestPropertyPrefetchBitIdentity).
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
		name     string
		resident bool
	}{
		{"staged", false},
		{"resident", true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			reg, err := device.NewRegistry(cpu.New(1), tpu.New(tpu.Config{}))
			if err != nil {
				b.Fatal(err)
			}
			e := &Engine{Reg: reg, Policy: row("tpu-only").Policy,
				Spec:         hlop.Spec{TargetPartitions: 16, MinTile: 8},
				DoubleBuffer: true, Prefetch: bc.resident}
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
