package core

import (
	"runtime"
	"testing"

	"shmt/internal/device"
	"shmt/internal/device/cpu"
	"shmt/internal/device/gpu"
	"shmt/internal/device/tpu"
	"shmt/internal/hlop"
	"shmt/internal/parallel"
	"shmt/internal/vop"
	"shmt/internal/workload"
)

// BenchmarkEngineSteadyState measures the full partition→schedule→execute→
// aggregate path at steady state. With the tensor arena recycling HLOP
// blocks and the ExecTime memo replacing the O(devices²)-per-step cost-model
// calls, allocs/op should stay bounded by per-run bookkeeping (queues,
// report) plus the one escaping output matrix — not grow with bytes
// processed. workers=1 computes the round inline in admission order;
// workers=GOMAXPROCS computes it on the host pool, which must cost a round
// O(1) extra allocations, not one per HLOP.
func BenchmarkEngineSteadyState(b *testing.B) {
	reg, err := device.NewRegistry(cpu.New(1), gpu.New(gpu.Config{}), tpu.New(tpu.Config{}))
	if err != nil {
		b.Fatal(err)
	}
	m := workload.Mixed(256, 256, workload.Profile{TileSize: 64}, 1)
	e := &Engine{Reg: reg, Policy: row("work-stealing").Policy,
		Spec: hlop.Spec{TargetPartitions: 16, MinTile: 8}}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=GOMAXPROCS", runtime.GOMAXPROCS(0)}} {
		b.Run(bc.name, func(b *testing.B) {
			defer parallel.SetWorkers(parallel.SetWorkers(bc.workers))
			b.SetBytes(int64(m.Len() * 8))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, err := vop.New(vop.OpSobel, m)
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
