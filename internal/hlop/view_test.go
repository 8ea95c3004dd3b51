package hlop

import (
	"testing"

	"shmt/internal/tensor"
	"shmt/internal/vop"
)

func viewVOP(t *testing.T, op vop.Opcode, rows, cols int) *vop.VOP {
	t.Helper()
	inputs := make([]*tensor.Matrix, op.NumInputs())
	for k := range inputs {
		m := tensor.NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = float64(i + k)
		}
		inputs[k] = m
	}
	v, err := vop.New(op, inputs...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestPartitionAliasesInputs(t *testing.T) {
	v := viewVOP(t, vop.OpRelu, 32, 16)
	hs, err := Partition(v, Spec{TargetPartitions: 4, MinVectorElems: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hs {
		if !h.Inputs[0].IsView() {
			t.Fatalf("HLOP %d input is not a view", h.ID)
		}
	}
	// A write to the parent must be visible through the partition's view.
	v.Inputs[0].Set(hs[1].Region.Row, 0, -42)
	if hs[1].Inputs[0].At(0, 0) != -42 {
		t.Fatal("partition view does not alias the parent tensor")
	}
}

// TestPartitionForceCopyMaterializes holds every view partition to the
// materialised copy of its region (tensor.CopyOut, the copy datapath's
// partition step), over row bands and strided tiles: the same elements, and a
// later write to the parent reaches the view but not the copy.
func TestPartitionForceCopyMaterializes(t *testing.T) {
	for _, op := range []vop.Opcode{vop.OpRelu, vop.OpDCT8x8} {
		v := viewVOP(t, op, 32, 32)
		hs, err := Partition(v, Spec{TargetPartitions: 4, MinVectorElems: 8, MinTile: 8})
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hs {
			blk, err := tensor.CopyOut(v.Inputs[0], h.Region)
			if err != nil {
				t.Fatal(err)
			}
			if !blk.Equal(h.Inputs[0]) {
				t.Fatalf("%s HLOP %d: view differs from the copy of %v", op, h.ID, h.Region)
			}
			v.Inputs[0].Set(h.Region.Row, h.Region.Col, -42)
			if h.Inputs[0].At(0, 0) != -42 || blk.At(0, 0) == -42 {
				t.Fatalf("%s HLOP %d: view must alias the parent and the copy must not", op, h.ID)
			}
		}
	}
}

func TestPartitionGEMMBandView(t *testing.T) {
	a := tensor.NewMatrix(24, 6)
	b := tensor.NewMatrix(6, 10)
	for i := range a.Data {
		a.Data[i] = float64(i)
	}
	v, err := vop.New(vop.OpGEMM, a, b)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := Partition(v, Spec{TargetPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hs {
		if !h.Inputs[0].IsView() {
			t.Fatalf("GEMM band %d not a view", h.ID)
		}
		if h.Inputs[1] != b {
			t.Fatal("B matrix should ship aliased whole")
		}
		if h.Inputs[0].Cols != a.Cols {
			t.Fatal("band width must cover all of A's columns")
		}
	}
}

func TestHaloPartitionsStayMaterialized(t *testing.T) {
	v := viewVOP(t, vop.OpSobel, 32, 32)
	hs, err := Partition(v, Spec{TargetPartitions: 4, MinTile: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hs {
		if h.Inputs[0].IsView() {
			t.Fatalf("halo HLOP %d must materialize its block", h.ID)
		}
	}
}

func TestSplitPreservesRepresentation(t *testing.T) {
	// Halo-free halves alias the parent again; halo halves materialize.
	for _, op := range []vop.Opcode{vop.OpRelu, vop.OpSobel} {
		v := viewVOP(t, op, 64, 16)
		hs, err := Partition(v, Spec{TargetPartitions: 2, MinVectorElems: 8, MinTile: 8})
		if err != nil {
			t.Fatal(err)
		}
		view := hs[0].Inputs[0].IsView()
		if view != (v.HaloWidth() == 0) {
			t.Fatalf("%s: partition view = %v", op, view)
		}
		a, b, err := Split(hs[0], 100)
		if err != nil {
			t.Fatal(err)
		}
		if a.Inputs[0].IsView() != view || b.Inputs[0].IsView() != view {
			t.Fatalf("%s: split halves changed representation", op)
		}
		if a.Region.Len()+b.Region.Len() != hs[0].Region.Len() {
			t.Fatalf("%s: split halves do not cover the parent region", op)
		}
	}
}

func TestSplitDerivesOutputSubViews(t *testing.T) {
	v := viewVOP(t, vop.OpRelu, 64, 16)
	hs, err := Partition(v, Spec{TargetPartitions: 2, MinVectorElems: 8})
	if err != nil {
		t.Fatal(err)
	}
	out := tensor.NewMatrix(64, 16)
	vw, err := out.View(hs[0].Region)
	if err != nil {
		t.Fatal(err)
	}
	hs[0].Out = vw
	a, b, err := Split(hs[0], 100)
	if err != nil {
		t.Fatal(err)
	}
	if a.Out == nil || b.Out == nil {
		t.Fatal("split halves lost their output views")
	}
	// Writing through each half's Out view must land at its absolute region
	// in the VOP output.
	a.Out.Set(0, 0, 1)
	b.Out.Set(0, 0, 2)
	if out.At(a.Region.Row, a.Region.Col) != 1 || out.At(b.Region.Row, b.Region.Col) != 2 {
		t.Fatal("output sub-views misaligned with absolute regions")
	}
}

func TestSplitGEMMOutputSubViews(t *testing.T) {
	a := tensor.NewMatrix(16, 4)
	b := tensor.NewMatrix(4, 6)
	v, err := vop.New(vop.OpGEMM, a, b)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := Partition(v, Spec{TargetPartitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := tensor.NewMatrix(16, 6)
	vw, err := out.View(hs[0].Region)
	if err != nil {
		t.Fatal(err)
	}
	hs[0].Out = vw
	x, y, err := Split(hs[0], 7)
	if err != nil {
		t.Fatal(err)
	}
	if !x.Inputs[0].IsView() || !y.Inputs[0].IsView() {
		t.Fatal("GEMM split bands should stay views")
	}
	y.Out.Set(0, 0, 9)
	if out.At(y.Region.Row, 0) != 9 {
		t.Fatal("GEMM split output view misaligned")
	}
}
