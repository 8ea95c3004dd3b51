package gpu

import (
	"math"
	"testing"

	"shmt/internal/device"
	"shmt/internal/device/cpu"
	"shmt/internal/tensor"
	"shmt/internal/vop"
	"shmt/internal/workload"
)

func TestIdentity(t *testing.T) {
	d := New(Config{})
	if d.Name() != "gpu" || d.Kind() != device.GPU {
		t.Fatal("identity wrong")
	}
	if d.AccuracyRank() != 1 {
		t.Fatal("FP32 GPU should rank just below the exact CPU")
	}
	if d.ElemBytes() != 4 {
		t.Fatal("FP32 element width expected")
	}
	if d.MemoryBytes() != 0 {
		t.Fatal("integrated GPU shares host memory")
	}
	for _, op := range vop.All() {
		if !d.Supports(op) {
			t.Fatalf("GPU should support %s", op)
		}
	}
}

func TestFP32ErrorIsTinyButNonzero(t *testing.T) {
	d := New(Config{})
	ref := cpu.New(1)
	in := workload.Uniform(32, 32, 0.1, 1, 2)
	got, err := d.ExecuteInto(vop.OpLog, []*tensor.Matrix{in}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ref.ExecuteInto(vop.OpLog, []*tensor.Matrix{in}, nil, nil)
	var maxd float64
	for i := range got.Data {
		if dd := math.Abs(got.Data[i] - want.Data[i]); dd > maxd {
			maxd = dd
		}
	}
	if maxd == 0 {
		t.Fatal("FP32 should differ from FP64 on transcendental outputs")
	}
	if maxd > 1e-5 {
		t.Fatalf("FP32 error %g too large", maxd)
	}
}

func TestSlowdownScaling(t *testing.T) {
	fast := New(Config{})
	slow := New(Config{Slowdown: 8})
	if got, want := slow.ExecTime(vop.OpFFT, 100), 8*fast.ExecTime(vop.OpFFT, 100); math.Abs(got-want) > 1e-15 {
		t.Fatalf("slowdown not applied: %g want %g", got, want)
	}
	if slow.Link().BandwidthBps*8 != fast.Link().BandwidthBps {
		t.Fatal("link bandwidth not scaled")
	}
}

func TestThroughputScaleAblation(t *testing.T) {
	base := New(Config{})
	boosted := New(Config{ThroughputScale: 2})
	if boosted.ExecTime(vop.OpGEMM, 1000)*2 != base.ExecTime(vop.OpGEMM, 1000) {
		t.Fatal("throughput scale not applied")
	}
}
