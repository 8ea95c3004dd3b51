package cpu

import (
	"testing"

	"shmt/internal/device"
	"shmt/internal/kernels"
	"shmt/internal/tensor"
	"shmt/internal/vop"
	"shmt/internal/workload"
)

func TestIdentity(t *testing.T) {
	d := New(1)
	if d.Name() != "cpu" || d.Kind() != device.CPU {
		t.Fatal("identity wrong")
	}
	if d.AccuracyRank() != 0 {
		t.Fatal("CPU must be the accuracy reference (rank 0)")
	}
	if d.ElemBytes() != 8 || d.MemoryBytes() != 0 {
		t.Fatal("CPU memory model wrong")
	}
	for _, op := range vop.All() {
		if !d.Supports(op) {
			t.Fatalf("CPU should support %s", op)
		}
	}
}

func TestExecuteIsExact(t *testing.T) {
	d := New(1)
	in := workload.Uniform(16, 16, 0, 1, 4)
	got, err := d.ExecuteInto(vop.OpSobel, []*tensor.Matrix{in}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := kernels.Exec(vop.OpSobel, []*tensor.Matrix{in}, nil, kernels.Exact{})
	if !got.Equal(want) {
		t.Fatal("CPU execution must be bit-identical to the exact kernel")
	}
}

func TestCPUIsSlowest(t *testing.T) {
	d := New(1)
	if d.ExecTime(vop.OpFFT, 1000) <= 1000/device.Throughput(device.GPU, vop.OpFFT) {
		t.Fatal("CPU should be slower than the GPU")
	}
}

func TestSlowdownClamped(t *testing.T) {
	d := New(0) // below 1 clamps to 1
	ref := New(1)
	if d.ExecTime(vop.OpAdd, 10) != ref.ExecTime(vop.OpAdd, 10) {
		t.Fatal("slowdown below 1 should clamp")
	}
}

func TestLinkAndDispatch(t *testing.T) {
	d := New(1)
	if d.DispatchOverhead() <= 0 {
		t.Fatal("dispatch must cost something")
	}
	if d.Link().BandwidthBps != 25.6e9 {
		t.Fatalf("link bandwidth = %g", d.Link().BandwidthBps)
	}
	slow := New(4)
	if slow.Link().BandwidthBps*4 != d.Link().BandwidthBps {
		t.Fatal("slowdown should scale the link")
	}
	if d.Supports(vop.Opcode(999)) {
		t.Fatal("unknown opcode should be unsupported")
	}
}
