package npu

import (
	"math"
	"testing"

	"shmt/internal/kernels"
	"shmt/internal/tensor"
	"shmt/internal/vop"
	"shmt/internal/workload"
)

func TestModelRunApproximates(t *testing.T) {
	m := Model{Op: vop.OpSobel, Layers: kernels.Stages(vop.OpSobel)}
	in := workload.Uniform(32, 32, 0, 1, 1)
	got, err := m.RunStaged([]*tensor.Matrix{m.Stage(in)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := kernels.Exec(vop.OpSobel, []*tensor.Matrix{in}, nil, kernels.Exact{})
	var sum float64
	for i := range got.Data {
		sum += math.Abs(got.Data[i] - ref.Data[i])
	}
	if sum == 0 {
		t.Fatal("NPU model should approximate, not match exactly")
	}
	if sum/float64(len(got.Data)) > 0.2 {
		t.Fatalf("mean error %g too large", sum/float64(len(got.Data)))
	}
}

func TestQATRounderFiner(t *testing.T) {
	// BlockInt8 calibrates per 64-element block, so error on locally-narrow,
	// globally-wide data must be smaller than tensor-wide Int8.
	in := workload.Mixed(64, 64, workload.Profile{CriticalFraction: 0.9, TileSize: 32}, 2)
	a := append([]float64(nil), in.Data...)
	b := append([]float64(nil), in.Data...)
	kernels.Int8{}.Round(a)
	BlockInt8{Block: 64}.Round(b)
	var ea, eb float64
	for i := range in.Data {
		ea += math.Abs(a[i] - in.Data[i])
		eb += math.Abs(b[i] - in.Data[i])
	}
	if eb >= ea {
		t.Fatalf("block-calibrated error %g should undercut tensor-wide %g", eb, ea)
	}
}

func TestBlockInt8DefaultsBlock(t *testing.T) {
	data := []float64{1, 2, 3}
	var r BlockInt8 // Block 0 -> default 64; must not panic
	r.Round(data)
	if r.Name() == "" {
		t.Fatal("rounder name empty")
	}
}

func TestModelRounderSelection(t *testing.T) {
	ptq := Model{}
	if _, ok := ptq.Rounder().(kernels.Int8); !ok {
		t.Fatal("PTQ model should use tensor-wide Int8")
	}
	qat := Model{QuantAware: true}
	if _, ok := qat.Rounder().(BlockInt8); !ok {
		t.Fatal("QAT model should use BlockInt8")
	}
}
