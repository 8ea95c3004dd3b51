package hlop

import (
	"math/rand"
	"testing"
	"testing/quick"

	"shmt/internal/tensor"
	"shmt/internal/vop"
)

func mkVOP(t *testing.T, op vop.Opcode, inputs ...*tensor.Matrix) *vop.VOP {
	t.Helper()
	v, err := vop.New(op, inputs...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func filled(rows, cols int, seed int64) *tensor.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// coverage checks that HLOP regions tile the VOP's output space exactly once.
func coverage(t *testing.T, v *vop.VOP, hs []*HLOP) {
	t.Helper()
	rows, cols := v.OutputShape()
	if v.Op.IsReduction() {
		// Reductions cover the *input*: regions tile inputs[0].
		rows, cols = v.Inputs[0].Rows, v.Inputs[0].Cols
	}
	seen := make([]int, rows*cols)
	for _, h := range hs {
		for i := h.Region.Row; i < h.Region.Row+h.Region.Height; i++ {
			for j := h.Region.Col; j < h.Region.Col+h.Region.Width; j++ {
				seen[i*cols+j]++
			}
		}
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("cell (%d,%d) covered %d times", idx/cols, idx%cols, n)
		}
	}
}

func TestVectorPartitioning(t *testing.T) {
	v := mkVOP(t, vop.OpSqrt, filled(256, 64, 1))
	hs, err := Partition(v, Spec{TargetPartitions: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) != 16 {
		t.Fatalf("partitions = %d want 16", len(hs))
	}
	coverage(t, v, hs)
	for _, h := range hs {
		if h.Region.Width != 64 {
			t.Fatal("vector partitions must be full-width row bands")
		}
		if h.Elems != h.Region.Len() {
			t.Fatal("elems should equal region size")
		}
	}
}

func TestVectorPageGranularity(t *testing.T) {
	// §3.4: vector partitions must contain at least 1024 elements.
	v := mkVOP(t, vop.OpSqrt, filled(128, 32, 2)) // 4096 elements total
	hs, err := Partition(v, Spec{TargetPartitions: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hs[:len(hs)-1] { // the final remainder band may be short
		if h.Elems < 1024 {
			t.Fatalf("partition with %d elements violates the page floor", h.Elems)
		}
	}
	coverage(t, v, hs)
}

func TestTilePartitioning(t *testing.T) {
	v := mkVOP(t, vop.OpSobel, filled(256, 256, 3))
	hs, err := Partition(v, Spec{TargetPartitions: 16})
	if err != nil {
		t.Fatal(err)
	}
	coverage(t, v, hs)
	src := v.Inputs[0]
	for _, h := range hs {
		// Stencil partitions carry a 1-cell halo, truncated at the matrix
		// edges so block boundaries coincide with true boundaries.
		wantTop, wantLeft := 1, 1
		if h.Region.Row == 0 {
			wantTop = 0
		}
		if h.Region.Col == 0 {
			wantLeft = 0
		}
		wantBottom, wantRight := 1, 1
		if h.Region.Row+h.Region.Height == src.Rows {
			wantBottom = 0
		}
		if h.Region.Col+h.Region.Width == src.Cols {
			wantRight = 0
		}
		if h.Inputs[0].Rows != h.Region.Height+wantTop+wantBottom ||
			h.Inputs[0].Cols != h.Region.Width+wantLeft+wantRight {
			t.Fatalf("halo wrong: input %dx%d for region %v", h.Inputs[0].Rows, h.Inputs[0].Cols, h.Region)
		}
		if h.Interior.Row != wantTop || h.Interior.Col != wantLeft {
			t.Fatal("interior offset wrong")
		}
	}
}

func TestHaloContentMatchesSource(t *testing.T) {
	src := filled(64, 64, 4)
	v := mkVOP(t, vop.OpLaplacian, src)
	hs, err := Partition(v, Spec{TargetPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Every interior cell of every partition equals the source cell.
	for _, h := range hs {
		for i := 0; i < h.Region.Height; i++ {
			for j := 0; j < h.Region.Width; j++ {
				got := h.Inputs[0].At(h.Interior.Row+i, h.Interior.Col+j)
				want := src.At(h.Region.Row+i, h.Region.Col+j)
				if got != want {
					t.Fatalf("interior mismatch at %d,%d", i, j)
				}
			}
		}
	}
}

func TestDCTTilesAligned(t *testing.T) {
	v := mkVOP(t, vop.OpDCT8x8, filled(128, 128, 5))
	hs, err := Partition(v, Spec{TargetPartitions: 10})
	if err != nil {
		t.Fatal(err)
	}
	coverage(t, v, hs)
	for _, h := range hs {
		if h.Region.Row%8 != 0 || h.Region.Col%8 != 0 || h.Region.Height%8 != 0 || h.Region.Width%8 != 0 {
			t.Fatalf("DCT tile %v not 8-aligned", h.Region)
		}
	}
}

func TestFFTPartitionsKeepRows(t *testing.T) {
	v := mkVOP(t, vop.OpFFT, filled(64, 128, 6))
	hs, err := Partition(v, Spec{TargetPartitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	coverage(t, v, hs)
	for _, h := range hs {
		if h.Region.Width != 128 || h.Region.Col != 0 {
			t.Fatal("FFT partitions must keep whole rows")
		}
	}
}

func TestGEMMPartitioning(t *testing.T) {
	a := filled(64, 32, 7)
	b := filled(32, 48, 8)
	v := mkVOP(t, vop.OpGEMM, a, b)
	hs, err := Partition(v, Spec{TargetPartitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	coverage(t, v, hs)
	for _, h := range hs {
		if h.Inputs[1] != b {
			t.Fatal("GEMM partitions must share the full B matrix")
		}
		if h.Inputs[0].Cols != 32 {
			t.Fatal("A band has wrong width")
		}
		if h.Region.Width != 48 {
			t.Fatal("output band must span B's columns")
		}
	}
}

func TestPartitionInvalidVOP(t *testing.T) {
	v := &vop.VOP{Op: vop.OpAdd, Inputs: []*tensor.Matrix{filled(4, 4, 1)}}
	if _, err := Partition(v, Spec{}); err == nil {
		t.Fatal("invalid VOP should fail to partition")
	}
}

func TestSplitRowBand(t *testing.T) {
	src := filled(64, 64, 9)
	v := mkVOP(t, vop.OpSobel, src)
	hs, err := Partition(v, Spec{TargetPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := hs[0]
	h.Critical = true
	h.AssignedQueue = 2
	a, b, err := Split(h, 99)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != h.ID || b.ID != 99 {
		t.Fatalf("split ids = %d/%d", a.ID, b.ID)
	}
	if a.Region.Len()+b.Region.Len() != h.Region.Len() {
		t.Fatal("split lost elements")
	}
	if !a.Critical || a.AssignedQueue != 2 || !b.Critical {
		t.Fatal("split must inherit policy decisions")
	}
	// Both halves re-extract valid data from the parent.
	for _, half := range []*HLOP{a, b} {
		got := half.Inputs[0].At(half.Interior.Row, half.Interior.Col)
		want := src.At(half.Region.Row, half.Region.Col)
		if got != want {
			t.Fatal("split half data wrong")
		}
	}
}

func TestSplitGEMM(t *testing.T) {
	a := filled(16, 8, 10)
	b := filled(8, 12, 11)
	v := mkVOP(t, vop.OpGEMM, a, b)
	hs, _ := Partition(v, Spec{TargetPartitions: 2})
	x, y, err := Split(hs[0], 50)
	if err != nil {
		t.Fatal(err)
	}
	if x.Region.Height+y.Region.Height != hs[0].Region.Height {
		t.Fatal("GEMM split lost rows")
	}
	one := filled(1, 8, 12)
	single := &HLOP{Op: vop.OpGEMM, Parent: v, Region: tensor.Region{Height: 1, Width: 12}, Inputs: []*tensor.Matrix{one, b}}
	if _, _, err := Split(single, 51); err == nil {
		t.Fatal("1-row GEMM band should refuse to split")
	}
}

func TestSplitSingleElementFails(t *testing.T) {
	v := mkVOP(t, vop.OpSobel, filled(8, 8, 13))
	h := &HLOP{Op: vop.OpSobel, Parent: v, Region: tensor.Region{Row: 0, Col: 0, Height: 1, Width: 1}}
	if _, _, err := Split(h, 1); err == nil {
		t.Fatal("unit region should refuse to split")
	}
}

func TestSplitFFTKeepsRows(t *testing.T) {
	v := mkVOP(t, vop.OpFFT, filled(8, 64, 14))
	hs, _ := Partition(v, Spec{TargetPartitions: 2})
	a, b, err := Split(hs[0], 20)
	if err != nil {
		t.Fatal(err)
	}
	if a.Region.Width != 64 || b.Region.Width != 64 {
		t.Fatal("FFT split must keep whole rows")
	}
	single := &HLOP{Op: vop.OpFFT, Parent: v, Region: tensor.Region{Height: 1, Width: 64}, Inputs: hs[0].Inputs}
	if _, _, err := Split(single, 21); err == nil {
		t.Fatal("single FFT row should refuse to split")
	}
}

func TestOutputBytes(t *testing.T) {
	v := mkVOP(t, vop.OpReduceHist256, filled(32, 32, 15))
	hs, _ := Partition(v, Spec{TargetPartitions: 2})
	if hs[0].OutputBytes(8) != 256*8 {
		t.Fatalf("histogram partial bytes = %d", hs[0].OutputBytes(8))
	}
	v2 := mkVOP(t, vop.OpSobel, filled(32, 32, 16))
	hs2, _ := Partition(v2, Spec{TargetPartitions: 2})
	if hs2[0].OutputBytes(4) != hs2[0].Region.Bytes(4) {
		t.Fatal("map-op output bytes should match the region")
	}
}

// Property: partitioning any supported op at any size yields exact coverage
// with positive element counts.
func TestPropertyPartitionCoverage(t *testing.T) {
	ops := []vop.Opcode{vop.OpSqrt, vop.OpSobel, vop.OpMeanFilter, vop.OpFFT, vop.OpDCT8x8, vop.OpReduceSum}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		op := ops[r.Intn(len(ops))]
		rows := 8 * (1 + r.Intn(12))
		cols := rows
		if op == vop.OpFFT {
			cols = 1 << (3 + r.Intn(4))
		}
		m := filled(rows, cols, seed)
		if op == vop.OpSqrt {
			for i := range m.Data {
				if m.Data[i] < 0 {
					m.Data[i] = -m.Data[i]
				}
			}
		}
		v, err := vop.New(op, m)
		if err != nil {
			return false
		}
		hs, err := Partition(v, Spec{TargetPartitions: 1 + r.Intn(20), MinVectorElems: 64, MinTile: 8})
		if err != nil {
			return false
		}
		seen := make([]int, rows*cols)
		for _, h := range hs {
			if h.Elems <= 0 {
				return false
			}
			for i := h.Region.Row; i < h.Region.Row+h.Region.Height; i++ {
				for j := h.Region.Col; j < h.Region.Col+h.Region.Width; j++ {
					seen[i*cols+j]++
				}
			}
		}
		for _, n := range seen {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiStepStencilHalo(t *testing.T) {
	src := filled(64, 64, 40)
	power := filled(64, 64, 41)
	v, err := vop.New(vop.OpStencil, src, power)
	if err != nil {
		t.Fatal(err)
	}
	v.SetAttr("steps", 3)
	hs, err := Partition(v, Spec{TargetPartitions: 4, MinTile: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hs {
		// 64x64 into 4 tiles: every tile touches two matrix edges, so the
		// 3-cell multi-step halo extends on exactly two sides.
		if h.Inputs[0].Rows != h.Region.Height+3 || h.Inputs[0].Cols != h.Region.Width+3 {
			t.Fatalf("halo wrong: input %dx%d for region %v", h.Inputs[0].Rows, h.Inputs[0].Cols, h.Region)
		}
		if got := h.Interior.Row; got != 0 && got != 3 {
			t.Fatalf("interior offset = %d want 0 or 3", got)
		}
	}
}

func TestInputRegionAndBytes(t *testing.T) {
	a := filled(16, 8, 60)
	b := filled(8, 24, 61)
	v := mkVOP(t, vop.OpGEMM, a, b)
	hs, err := Partition(v, Spec{TargetPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := hs[0]
	// GEMM samples the A band, not the (B-wide) output interior.
	reg := h.InputRegion()
	if reg.Width != 8 || reg.Height != h.Inputs[0].Rows {
		t.Fatalf("GEMM input region = %v", reg)
	}
	// Input payload covers the band plus the shared B matrix.
	wantBytes := int64(h.Inputs[0].Len()+b.Len()) * 4
	if h.InputBytes(4) != wantBytes {
		t.Fatalf("input bytes = %d want %d", h.InputBytes(4), wantBytes)
	}
	if h.String() == "" {
		t.Fatal("String should describe the HLOP")
	}

	s := mkVOP(t, vop.OpSobel, filled(16, 16, 62))
	sh, _ := Partition(s, Spec{TargetPartitions: 1, MinTile: 8})
	if sh[0].InputRegion() != sh[0].Interior {
		t.Fatal("non-GEMM input region should be the interior")
	}
}

func TestReducePartialBytes(t *testing.T) {
	avg := mkVOP(t, vop.OpReduceAverage, filled(16, 16, 63))
	hs, _ := Partition(avg, Spec{TargetPartitions: 2})
	if hs[0].OutputBytes(8) != 2*8 { // [sum, count]
		t.Fatalf("average partial bytes = %d", hs[0].OutputBytes(8))
	}
	sum := mkVOP(t, vop.OpReduceSum, filled(16, 16, 64))
	hs2, _ := Partition(sum, Spec{TargetPartitions: 2})
	if hs2[0].OutputBytes(8) != 8 {
		t.Fatalf("sum partial bytes = %d", hs2[0].OutputBytes(8))
	}
}

func TestAlignmentHelpers(t *testing.T) {
	if alignDown(13, 8) != 8 || alignDown(13, 1) != 13 {
		t.Fatal("alignDown wrong")
	}
	if maxAligned(13, 8) != 8 || maxAligned(5, 8) != 5 || maxAligned(13, 1) != 13 {
		t.Fatal("maxAligned wrong")
	}
}

// TestRegionsNeedShapesOnly: Regions is Partition's geometry — the same
// regions in the same order for every parallelization model, GEMM's in output
// space — and reads no element: inputs that are a shape and nothing else give
// the same answer.
func TestRegionsNeedShapesOnly(t *testing.T) {
	for _, tc := range []struct {
		op     vop.Opcode
		shapes [][2]int
		spec   Spec
	}{
		{vop.OpRelu, [][2]int{{67, 48}}, Spec{TargetPartitions: 4}},
		{vop.OpAdd, [][2]int{{256, 256}, {256, 256}}, Spec{TargetPartitions: 2}},
		{vop.OpFFT, [][2]int{{64, 128}}, Spec{TargetPartitions: 3}},
		{vop.OpGEMM, [][2]int{{50, 16}, {16, 24}}, Spec{TargetPartitions: 4}},
		{vop.OpDCT8x8, [][2]int{{136, 72}}, Spec{TargetPartitions: 4}},
		{vop.OpSobel, [][2]int{{200, 120}}, Spec{}},
	} {
		full := &vop.VOP{Op: tc.op}
		bare := &vop.VOP{Op: tc.op}
		for i, s := range tc.shapes {
			full.Inputs = append(full.Inputs, filled(s[0], s[1], int64(i)))
			bare.Inputs = append(bare.Inputs, &tensor.Matrix{Rows: s[0], Cols: s[1]})
		}
		hs, err := Partition(full, tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		regs, err := Regions(bare, tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != len(hs) || len(regs) < 2 {
			t.Fatalf("%s: %d regions for %d HLOPs", tc.op, len(regs), len(hs))
		}
		for i, h := range hs {
			if regs[i] != h.Region {
				t.Fatalf("%s: region %d is %v, the HLOP's %v", tc.op, i, regs[i], h.Region)
			}
		}
	}
	if _, err := Regions(&vop.VOP{Op: vop.OpGEMM, Inputs: []*tensor.Matrix{{Rows: 4, Cols: 3}, {Rows: 4, Cols: 3}}}, Spec{}); err == nil {
		t.Fatal("Regions accepted a GEMM whose inner dimensions differ")
	}
}
