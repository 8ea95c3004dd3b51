package core

import (
	"fmt"
	"sync"
	"testing"

	"shmt/internal/device"
	"shmt/internal/device/cpu"
	"shmt/internal/device/gpu"
	"shmt/internal/device/tpu"
	"shmt/internal/hlop"
	"shmt/internal/telemetry"
	"shmt/internal/tensor"
	"shmt/internal/vop"
	"shmt/internal/workload"
)

// peakDevice computes like the device it wraps and, each time it hands back
// a private result (one that is not the HLOP's output view), records how
// many bytes of its private results the round has not landed yet: the bytes
// it handed back, less what shmt_datapath_bytes_copied_total counted since
// the round began. Only its results are copied in these rounds, so the
// counter counts exactly their landing.
type peakDevice struct {
	device.Device
	base int64 // the counter when the round began

	mu      sync.Mutex
	issued  int64 // bytes of private results handed back
	largest int64 // the largest of them
	peak    int64 // the most bytes handed back and not landed at once
}

func (d *peakDevice) Compute(t device.Ticket, op vop.Opcode, in []*tensor.Matrix, dst *tensor.Matrix, at map[string]float64) (*tensor.Matrix, error) {
	res, err := d.Device.Compute(t, op, in, dst, at)
	if err != nil || res == dst {
		return res, err
	}
	n := res.Bytes(tensor.ElemSize)
	d.mu.Lock()
	d.issued += n
	d.largest = max(d.largest, n)
	d.peak = max(d.peak, d.issued-(telemetry.DatapathBytesCopied.Value()-d.base))
	d.mu.Unlock()
	return res, nil
}

// TestPrivateResultsLandAsComputed: a round whose every HLOP runs on the
// TPU, whose results are private buffers, never holds more of them than the
// host pool has workers — a pool task lands its result before it takes the
// next HLOP — whether the round is sixteen VOPs or one, at one, two and four
// workers. The resident cache prefetches casts of shared operands, not
// results, so its depth adds nothing to the bound. Results left for the end
// of the round would all be outstanding at once.
func TestPrivateResultsLandAsComputed(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	for _, nVOPs := range []int{16, 1} {
		for _, w := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%d VOPs/%d workers", nVOPs, w), func(t *testing.T) {
				withWorkers(w, func() {
					tp := &peakDevice{Device: tpu.New(tpu.Config{})}
					reg, err := device.NewRegistry(cpu.New(1), gpu.New(gpu.Config{}), tp)
					if err != nil {
						t.Fatal(err)
					}
					e := &Engine{Reg: reg, Policy: row("tpu-only").Policy, DoubleBuffer: true, Prefetch: true,
						Spec: hlop.Spec{TargetPartitions: 16, MinVectorElems: 64}}
					vops := make([]*vop.VOP, nVOPs)
					for i := range vops {
						if vops[i], err = vop.New(vop.OpSqrt, workload.Uniform(64, 64, 0.1, 2, int64(i))); err != nil {
							t.Fatal(err)
						}
					}
					tp.base = telemetry.DatapathBytesCopied.Value()
					res, err := e.RunBatch(vops)
					if err != nil {
						t.Fatal(err)
					}
					hlops := 0
					for _, rep := range res.Reports {
						hlops += rep.DeviceHLOPs["tpu"]
					}
					bound := int64(w) * tp.largest
					if hlops < 16*nVOPs || tp.issued <= bound {
						t.Fatalf("%d TPU HLOPs, %d B of private results: the round must hold more than the bound, %d B", hlops, tp.issued, bound)
					}
					if tp.peak > bound {
						t.Fatalf("%d B of private results outstanding at once (%d HLOPs), want at most %d B: one %d B result per worker",
							tp.peak, hlops, bound, tp.largest)
					}
				})
			})
		}
	}
}
