package dsp

import (
	"math"
	"testing"

	"shmt/internal/device"
	"shmt/internal/device/cpu"
	"shmt/internal/device/gpu"
	"shmt/internal/device/tpu"
	"shmt/internal/tensor"
	"shmt/internal/vop"
	"shmt/internal/workload"
)

func TestIdentity(t *testing.T) {
	d := New(Config{})
	if d.Name() != "dsp" || d.Kind() != device.DSP {
		t.Fatal("identity wrong")
	}
	if d.MemoryBytes() != 0 || d.ElemBytes() != 4 {
		t.Fatal("memory model wrong")
	}
}

func TestAccuracyOrderBetweenGPUAndTPU(t *testing.T) {
	g := gpu.New(gpu.Config{})
	p := tpu.New(tpu.Config{})
	d := New(Config{})
	if !(g.AccuracyRank() < d.AccuracyRank() && d.AccuracyRank() < p.AccuracyRank()) {
		t.Fatalf("24-bit DSP must rank between FP32 (%d) and INT8 (%d), got %d",
			g.AccuracyRank(), p.AccuracyRank(), d.AccuracyRank())
	}
}

func TestSupportsHomeDomainOnly(t *testing.T) {
	d := New(Config{})
	for _, op := range []vop.Opcode{vop.OpSobel, vop.OpFFT, vop.OpConv, vop.OpStencil} {
		if !d.Supports(op) {
			t.Errorf("%s should be in the DSP's home domain", op)
		}
	}
	for _, op := range []vop.Opcode{vop.OpGEMM, vop.OpParabolicPDE, vop.OpLog, vop.OpReduceHist256} {
		if d.Supports(op) {
			t.Errorf("%s should be outside the DSP's home domain", op)
		}
	}
}

func TestExecuteErrorBetweenGPUAndTPU(t *testing.T) {
	in := workload.Mixed(64, 64, workload.Profile{CriticalFraction: 0.8, TileSize: 32}, 5)
	ref, _ := cpu.New(1).ExecuteInto(vop.OpSobel, []*tensor.Matrix{in}, nil, nil)
	sum := func(d device.Device) float64 {
		out, err := d.ExecuteInto(vop.OpSobel, []*tensor.Matrix{in}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var e float64
		for i := range ref.Data {
			e += math.Abs(out.Data[i] - ref.Data[i])
		}
		return e
	}
	eGPU := sum(gpu.New(gpu.Config{}))
	eDSP := sum(New(Config{}))
	eTPU := sum(tpu.New(tpu.Config{}))
	if !(eGPU < eDSP && eDSP < eTPU) {
		t.Fatalf("error ordering violated: gpu=%g dsp=%g tpu=%g", eGPU, eDSP, eTPU)
	}
}

func TestFixed24RounderBound(t *testing.T) {
	data := []float64{-2, 0.5, 1.9999, 2}
	orig := append([]float64(nil), data...)
	var r Fixed24
	r.Round(data)
	for i := range data {
		if math.Abs(data[i]-orig[i]) > 2.0/(1<<23) {
			t.Fatalf("fixed24 error too large at %d: %g", i, math.Abs(data[i]-orig[i]))
		}
	}
	if r.Name() != "fixed24" {
		t.Fatal("rounder name wrong")
	}
}

func TestSlowdownScaling(t *testing.T) {
	fast := New(Config{})
	slow := New(Config{Slowdown: 4})
	if slow.ExecTime(vop.OpSobel, 100) != 4*fast.ExecTime(vop.OpSobel, 100) {
		t.Fatal("slowdown not applied")
	}
	if slow.Link().BandwidthBps*4 != fast.Link().BandwidthBps {
		t.Fatal("link bandwidth not scaled")
	}
}

func TestFilterPipelineFasterThanTransforms(t *testing.T) {
	d := New(Config{})
	if d.ExecTime(vop.OpSobel, 1000) >= d.ExecTime(vop.OpSRAD, 1000) {
		t.Fatal("hardwired filters should outpace irregular kernels per element")
	}
}
