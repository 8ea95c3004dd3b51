package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shmt/internal/chaos"
	"shmt/internal/device"
	"shmt/internal/device/cpu"
	"shmt/internal/device/gpu"
	"shmt/internal/device/tpu"
	"shmt/internal/hlop"
	"shmt/internal/tensor"
	"shmt/internal/vop"
	"shmt/internal/workload"
)

// TestRoundKeepsNothingOfARequest: once RunBatch has returned, nothing of
// the request is reachable from the engine's spare round — after a round
// that succeeds, one that fails on a kernel error and one whose retries run
// out, also once some private results have landed. Finalizers on every VOP, its inputs and its output (a reduction's is
// the engine's own), and on the storage of each matrix, must all run once the
// caller has dropped the result, while the engine, and so its spare, stays
// alive.
func TestRoundKeepsNothingOfARequest(t *testing.T) {
	spec := hlop.Spec{TargetPartitions: 8, MinTile: 8, MinVectorElems: 64}
	cases := []struct {
		name    string
		devices func() []device.Device
		policy  string
		wantErr error
	}{
		{"success", func() []device.Device {
			return []device.Device{cpu.New(1), gpu.New(gpu.Config{}), tpu.New(tpu.Config{})}
		}, "work-stealing", nil},
		{"kernel error", func() []device.Device {
			return []device.Device{cpu.New(1), &badKernelDevice{Device: gpu.New(gpu.Config{}), failAt: 3}}
		}, "gpu-baseline", errKernel},
		{"kernel error after private results landed", func() []device.Device {
			return []device.Device{cpu.New(1), &badKernelDevice{Device: tpu.New(tpu.Config{}), failAt: 5}}
		}, "tpu-only", errKernel},
		{"retries exhausted", func() []device.Device {
			return []device.Device{chaos.Wrap(gpu.New(gpu.Config{}), chaos.Config{FailFirstOps: 1 << 20})}
		}, "gpu-baseline", chaos.ErrTransient},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reg, err := device.NewRegistry(c.devices()...)
			if err != nil {
				t.Fatal(err)
			}
			e := &Engine{Reg: reg, Policy: row(c.policy).Policy, Spec: spec,
				DoubleBuffer: true, Prefetch: true, PlanCacheEntries: 8}
			var finalized atomic.Int32
			watch := func(p any) { runtime.SetFinalizer(p, func(any) { finalized.Add(1) }) }
			// The request lives in this function's frame alone.
			watched := func() int {
				a := workload.Mixed(64, 64, workload.Profile{TileSize: 16}, 3)
				b := workload.Uniform(64, 64, 0.5, 1.5, 4)
				img := workload.Image(64, 64, 5)
				gemm, _ := vop.New(vop.OpGEMM, a, b) // a band of a and all of b per HLOP: b is shared
				sobel, _ := vop.New(vop.OpSobel, img)
				sum, _ := vop.New(vop.OpReduceSum, workload.Uniform(64, 64, 0, 1, 6))
				gemm.Dst, sobel.Dst = tensor.NewMatrix(64, 64), tensor.NewMatrix(64, 64)
				vops := []*vop.VOP{gemm, sobel, sum}
				// Each matrix and its storage: a view keeps only the storage.
				n := 0
				for _, v := range vops {
					watch(v)
					for _, m := range append(v.Inputs[:len(v.Inputs):len(v.Inputs)], v.Dst) {
						if m != nil {
							watch(m)
							watch(&m.Data[0])
							n += 2
						}
					}
				}
				res, err := e.RunBatch(vops)
				if !errors.Is(err, c.wantErr) {
					t.Fatalf("err = %v, want %v", err, c.wantErr)
				}
				if err == nil && len(res.Reports) != len(vops) {
					t.Fatalf("%d reports for %d VOPs", len(res.Reports), len(vops))
				}
				return n + len(vops)
			}()
			if e.spare.Load() == nil {
				t.Fatal("the round was not given back as the engine's spare")
			}
			for i := 0; i < 50 && int(finalized.Load()) < watched; i++ {
				runtime.GC()
				time.Sleep(time.Millisecond)
			}
			if got := int(finalized.Load()); got != watched {
				t.Fatalf("%d of %d of the request's objects were collected: the spare round keeps the rest", got, watched)
			}
			runtime.KeepAlive(e)
		})
	}
}

// errPoison is what poisonDevice's compute half returns.
var errPoison = errors.New("kernel: poisoned VOP")

// poisonDevice computes like its device except for an HLOP whose VOP carries
// the "poison" attribute: an error of the HLOP, not the device, so the round
// fails and no breaker moves.
type poisonDevice struct{ device.Device }

func (d poisonDevice) Compute(t device.Ticket, op vop.Opcode, in []*tensor.Matrix, dst *tensor.Matrix, at map[string]float64) (*tensor.Matrix, error) {
	if at["poison"] != 0 {
		return nil, errPoison
	}
	return d.Device.Compute(t, op, in, dst, at)
}

// TestSpareRoundUnderContention: eight goroutines share one Engine — its
// spare round and everything it keeps — calling RunBatch directly, with no
// session lock between them, over mixed opcodes and batches of one to four
// VOPs, with failing rounds (a kernel error mid-round, a destination of the
// wrong shape before it) interleaved. Every outcome is the one a fresh
// Engine gives the same batch: the same error, or outputs equal bit for bit,
// the same batch and per-VOP makespans, HLOP counts, per-device HLOP counts
// and batch accounting (peak bytes, data movement, busy time).
func TestSpareRoundUnderContention(t *testing.T) {
	devices := func() *device.Registry {
		reg, err := device.NewRegistry(cpu.New(1), poisonDevice{gpu.New(gpu.Config{})}, tpu.New(tpu.Config{}))
		if err != nil {
			t.Fatal(err)
		}
		return reg
	}
	engine := func() *Engine {
		return &Engine{Reg: devices(), Policy: row("QAWS-TS").Policy, Seed: 5,
			Spec:         hlop.Spec{TargetPartitions: 8, MinTile: 8, MinVectorElems: 64},
			DoubleBuffer: true, Prefetch: true}
	}
	// The inputs are shared, read-only, by every batch.
	a := workload.Mixed(64, 48, workload.Profile{TileSize: 16}, 11)
	b := workload.Uniform(48, 32, 0.5, 1.5, 12)
	img := workload.Image(48, 64, 13)
	pos := workload.Uniform(40, 40, 0.1, 2, 14)
	type spec struct {
		op     vop.Opcode
		in     []*tensor.Matrix
		attrs  map[string]float64
		badDst bool
	}
	kinds := []spec{
		{op: vop.OpGEMM, in: []*tensor.Matrix{a, b}},
		{op: vop.OpSobel, in: []*tensor.Matrix{img}},
		{op: vop.OpSqrt, in: []*tensor.Matrix{pos}},
		{op: vop.OpAdd, in: []*tensor.Matrix{pos, pos}},
		{op: vop.OpReduceSum, in: []*tensor.Matrix{pos}},
		{op: vop.OpMeanFilter, in: []*tensor.Matrix{img}},
		{op: vop.OpSRAD, in: []*tensor.Matrix{pos}, attrs: map[string]float64{"lambda": 0.5, "q0sqr": 0.05}},
		{op: vop.OpSobel, in: []*tensor.Matrix{img}, attrs: map[string]float64{"poison": 1}},
		{op: vop.OpSqrt, in: []*tensor.Matrix{pos}, badDst: true},
	}
	// batch is call c's batch: one to four VOPs, built afresh each time so
	// the shared and the fresh engine never share a VOP.
	batch := func(c int) []*vop.VOP {
		vops := make([]*vop.VOP, 1+c%4)
		for i := range vops {
			k := kinds[(c*7+i*3)%len(kinds)]
			v, err := vop.New(k.op, k.in...)
			if err != nil {
				t.Fatal(err)
			}
			for name, x := range k.attrs {
				v.SetAttr(name, x)
			}
			if k.badDst {
				v.Dst = tensor.NewMatrix(1, 1)
			}
			vops[i] = v
		}
		return vops
	}
	same := func(got, want *BatchResult) error {
		if math.Float64bits(got.Makespan) != math.Float64bits(want.Makespan) {
			return fmt.Errorf("makespan %v, fresh engine %v", got.Makespan, want.Makespan)
		}
		if got.PeakBytes != want.PeakBytes || got.Comm != want.Comm || !reflect.DeepEqual(got.Busy, want.Busy) ||
			!reflect.DeepEqual(got.Degraded, want.Degraded) {
			return fmt.Errorf("batch accounting %d B, %+v, %v; fresh engine %d B, %+v, %v",
				got.PeakBytes, got.Comm, got.Busy, want.PeakBytes, want.Comm, want.Busy)
		}
		for i, g := range got.Reports {
			w := want.Reports[i]
			if !bitEqual(g.Output, w.Output) {
				return fmt.Errorf("VOP %d: output differs from a fresh engine's", i)
			}
			if math.Float64bits(g.Makespan) != math.Float64bits(w.Makespan) || g.HLOPs != w.HLOPs {
				return fmt.Errorf("VOP %d: makespan %v, %d HLOPs; fresh engine %v, %d", i, g.Makespan, g.HLOPs, w.Makespan, w.HLOPs)
			}
			if fmt.Sprint(g.DeviceHLOPs) != fmt.Sprint(w.DeviceHLOPs) {
				return fmt.Errorf("VOP %d: HLOPs per device %v, fresh engine %v", i, g.DeviceHLOPs, w.DeviceHLOPs)
			}
		}
		return nil
	}

	shared := engine()
	const goroutines, calls = 8, 12
	var failed, poisoned atomic.Int32
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				c := g*calls + i
				got, err := shared.RunBatch(batch(c))
				want, wantErr := engine().RunBatch(batch(c))
				if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
					errs <- fmt.Errorf("call %d: err %v, fresh engine %v", c, err, wantErr)
					return
				}
				if err != nil {
					failed.Add(1)
					if errors.Is(err, errPoison) {
						poisoned.Add(1)
					}
					continue
				}
				if err := same(got, want); err != nil {
					errs <- fmt.Errorf("call %d (%d VOPs): %w", c, len(got.Reports), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if poisoned.Load() == 0 || failed.Load() == poisoned.Load() || int(failed.Load()) == goroutines*calls {
		t.Fatalf("%d of %d rounds failed, %d of them mid-round: the mix must hold both kinds of failure and successes",
			failed.Load(), goroutines*calls, poisoned.Load())
	}
}

// TestFailedRoundReleasesEachBufferOnce: a round in which one HLOP fails
// after others have landed their private results. The landed HLOPs released
// their buffers in their own compute tasks and hold none; release returns
// what the failed HLOP holds, its halo blocks, and skips the landed ones, so
// no buffer reaches the arena twice: draining the arena afterwards never
// returns one matrix twice.
func TestFailedRoundReleasesEachBufferOnce(t *testing.T) {
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("%d workers", w), func(t *testing.T) {
			withWorkers(w, func() {
				bad := &badKernelDevice{Device: tpu.New(tpu.Config{}), failAt: 5}
				reg, err := device.NewRegistry(cpu.New(1), bad)
				if err != nil {
					t.Fatal(err)
				}
				pol := row("tpu-only").Policy
				e := &Engine{Reg: reg, Policy: pol, DoubleBuffer: true, Prefetch: true,
					Spec: hlop.Spec{TargetPartitions: 8, MinTile: 8}}
				r := e.takeRound()
				defer e.putRound(r)
				v := sobelVOP(t, 128, 61) // halo blocks: every HLOP owns its inputs
				hs, overhead, _, err := r.planVOP(pol, v, nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				var owned []*tensor.Matrix
				for _, h := range hs {
					owned = append(owned, h.Inputs...)
				}
				rows, cols := v.OutputShape()
				r.parentIdx = map[*vop.VOP]int{v: 0}
				r.outs = []*tensor.Matrix{tensor.NewMatrix(rows, cols)}
				r.start(pol, hs, overhead, nil)
				err = r.runDeterministic(hs)
				r.pf.drain()
				if !errors.Is(err, errKernel) {
					t.Fatalf("err = %v, want the kernel error", err)
				}
				// The pass computes every HLOP of the round whatever fails:
				// all but the failed one land, at one worker the first four
				// before it fails.
				landed := 0
				for _, d := range r.done {
					if !d.landed {
						continue
					}
					landed++
					if d.h.Result != nil || d.h.Inputs != nil {
						t.Fatalf("HLOP %d landed but still holds buffers", d.h.ID)
					}
				}
				if landed != len(r.done)-1 {
					t.Fatalf("%d of %d HLOPs landed, want all but the failed one", landed, len(r.done))
				}
				r.release()
				// PutMatrix resets what it takes back: every result and every
				// halo block went back.
				for i, m := range append(owned, bad.results...) {
					if m.Rows != 0 || len(m.Data) != 0 {
						t.Fatalf("buffer %d of %d was not returned to the arena", i, len(owned)+len(bad.results))
					}
				}
				// A buffer put twice comes out of the arena twice.
				classes := map[int]bool{}
				for _, m := range append(owned, bad.results...) {
					classes[cap(m.Data)] = true
				}
				seen := map[*tensor.Matrix]bool{}
				for c := range classes {
					for range 2 * (len(owned) + len(bad.results)) {
						got := tensor.GetMatrixUninit(1, c)
						if seen[got] {
							t.Fatalf("the arena handed out one %d-element matrix twice: it was put twice", c)
						}
						seen[got] = true
					}
				}
			})
		})
	}
}
