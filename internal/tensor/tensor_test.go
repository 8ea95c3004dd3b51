package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || m.Len() != 12 {
		t.Fatalf("shape = %dx%d len %d", m.Rows, m.Cols, m.Len())
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d = %g, want 0", i, v)
		}
	}
}

func TestNewMatrixNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimensions")
		}
	}()
	NewMatrix(-1, 4)
}

func TestFromSlice(t *testing.T) {
	m, err := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %g", m.At(1, 2))
	}
	if _, err := FromSlice(2, 3, []float64{1}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
	// Dimensions whose product happens to match len(data): two negatives, and
	// a product that wraps around to it.
	if m, err := FromSlice(-2, -2, []float64{1, 2, 3, 4}); err == nil {
		t.Fatalf("accepted negative dimensions as %dx%d", m.Rows, m.Cols)
	}
	if m, err := FromSlice(math.MinInt, 2, nil); err == nil {
		t.Fatalf("accepted negative dimensions as %dx%d", m.Rows, m.Cols)
	}
	if m, err := FromSlice(math.MaxInt/2, 4, nil); err == nil {
		t.Fatalf("accepted overflowing dimensions as %dx%d", m.Rows, m.Cols)
	}
	if _, err := FromSlice(0, 5, nil); err != nil {
		t.Fatalf("0x5 of nothing: %v", err)
	}
}

func TestAtSet(t *testing.T) {
	m := NewMatrix(4, 5)
	m.Set(2, 3, 7.5)
	if got := m.At(2, 3); got != 7.5 {
		t.Fatalf("At = %g", got)
	}
	if m.Data[2*5+3] != 7.5 {
		t.Fatal("row-major layout broken")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("clone shares storage")
	}
	if !m.Equal(m.Clone()) {
		t.Fatal("clone not equal to source")
	}
}

func TestEqual(t *testing.T) {
	a := NewMatrix(2, 2)
	b := NewMatrix(2, 2)
	if !a.Equal(b) {
		t.Fatal("zero matrices should be equal")
	}
	b.Set(1, 1, 1)
	if a.Equal(b) {
		t.Fatal("different matrices reported equal")
	}
	if a.Equal(NewMatrix(2, 3)) {
		t.Fatal("different shapes reported equal")
	}
	a.Set(0, 0, math.NaN())
	c := a.Clone()
	if !a.Equal(c) {
		t.Fatal("NaN should compare equal to itself under Equal")
	}
}

func TestBytes(t *testing.T) {
	m := NewMatrix(10, 10)
	if m.Bytes(8) != 800 || m.Bytes(1) != 100 {
		t.Fatalf("Bytes = %d / %d", m.Bytes(8), m.Bytes(1))
	}
}

func TestRegionBasics(t *testing.T) {
	r := Region{Row: 1, Col: 2, Height: 3, Width: 4}
	if r.Len() != 12 || r.Bytes(4) != 48 {
		t.Fatalf("Len=%d Bytes=%d", r.Len(), r.Bytes(4))
	}
	if !r.In(4, 6) {
		t.Fatal("region should fit in 4x6")
	}
	if r.In(3, 6) {
		t.Fatal("region should not fit in 3x6")
	}
	if r.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestCopyOutCopyInRoundTrip(t *testing.T) {
	src := NewMatrix(6, 7)
	for i := range src.Data {
		src.Data[i] = float64(i)
	}
	r := Region{Row: 1, Col: 2, Height: 3, Width: 4}
	blk, err := CopyOut(src, r)
	if err != nil {
		t.Fatal(err)
	}
	if blk.At(0, 0) != src.At(1, 2) || blk.At(2, 3) != src.At(3, 5) {
		t.Fatal("CopyOut extracted wrong values")
	}
	dst := NewMatrix(6, 7)
	if err := CopyIn(dst, r, blk); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if dst.At(1+i, 2+j) != src.At(1+i, 2+j) {
				t.Fatalf("round trip mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestCopyOutBounds(t *testing.T) {
	src := NewMatrix(3, 3)
	if _, err := CopyOut(src, Region{Row: 2, Col: 2, Height: 2, Width: 2}); err == nil {
		t.Fatal("expected out-of-bounds error")
	}
}

func TestCopyInShapeMismatch(t *testing.T) {
	dst := NewMatrix(4, 4)
	blk := NewMatrix(2, 3)
	if err := CopyIn(dst, Region{Height: 2, Width: 2}, blk); err == nil {
		t.Fatal("expected block-shape error")
	}
}

func TestCopyOutHalo(t *testing.T) {
	src := NewMatrix(4, 4)
	for i := range src.Data {
		src.Data[i] = float64(i)
	}
	blk, inner, err := CopyOutHalo(src, Region{Row: 1, Col: 1, Height: 2, Width: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if blk.Rows != 4 || blk.Cols != 4 {
		t.Fatalf("halo block %dx%d", blk.Rows, blk.Cols)
	}
	if inner != (Region{Row: 1, Col: 1, Height: 2, Width: 2}) {
		t.Fatalf("inner = %v", inner)
	}
	// Interior values preserved.
	if blk.At(1, 1) != src.At(1, 1) || blk.At(2, 2) != src.At(2, 2) {
		t.Fatal("interior values wrong")
	}
	// Halo of an interior region comes from real neighbours.
	if blk.At(0, 1) != src.At(0, 1) {
		t.Fatal("halo should read the neighbouring row")
	}
}

func TestCopyOutHaloTruncatesAtEdges(t *testing.T) {
	src := NewMatrix(3, 3)
	for i := range src.Data {
		src.Data[i] = float64(i)
	}
	blk, inner, err := CopyOutHalo(src, Region{Row: 0, Col: 0, Height: 2, Width: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// No rows/cols exist above or left of the region: the halo truncates
	// there and only extends down/right.
	if blk.Rows != 3 || blk.Cols != 3 {
		t.Fatalf("block %dx%d want 3x3", blk.Rows, blk.Cols)
	}
	if inner.Row != 0 || inner.Col != 0 {
		t.Fatalf("inner = %v", inner)
	}
	if blk.At(2, 2) != src.At(2, 2) {
		t.Fatal("halo should carry the real down-right neighbours")
	}
}

func TestCopyOutHaloNegative(t *testing.T) {
	src := NewMatrix(3, 3)
	if _, _, err := CopyOutHalo(src, Region{Height: 1, Width: 1}, -1); err == nil {
		t.Fatal("expected error for negative halo")
	}
}

func TestFloat32Conversions(t *testing.T) {
	m := NewMatrix(1, 3)
	m.Data[0], m.Data[1], m.Data[2] = 1.5, -2.25, 1e-8
	f := m.ToFloat32()
	for i := range m.Data {
		if f[i] != float32(m.Data[i]) {
			t.Fatalf("fp32 conversion mismatch at %d", i)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.Min != 1 || s.Max != 4 || s.Mean != 2.5 || s.N != 4 {
		t.Fatalf("stats = %+v", s)
	}
	want := math.Sqrt(1.25)
	if math.Abs(s.Std-want) > 1e-12 {
		t.Fatalf("std = %g want %g", s.Std, want)
	}
	if s.Range() != 3 {
		t.Fatalf("range = %g", s.Range())
	}
	if z := Summarize(nil); z != (Stats{}) {
		t.Fatalf("empty stats = %+v", z)
	}
}

// Property: CopyOut then CopyIn into a zero matrix reproduces exactly the
// region and nothing else.
func TestPropertyCopyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(20), 1+r.Intn(20)
		src := NewMatrix(rows, cols)
		for i := range src.Data {
			src.Data[i] = rng.NormFloat64()
		}
		h, w := 1+r.Intn(rows), 1+r.Intn(cols)
		reg := Region{Row: r.Intn(rows - h + 1), Col: r.Intn(cols - w + 1), Height: h, Width: w}
		blk, err := CopyOut(src, reg)
		if err != nil {
			return false
		}
		dst := NewMatrix(rows, cols)
		if err := CopyIn(dst, reg, blk); err != nil {
			return false
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				inside := i >= reg.Row && i < reg.Row+h && j >= reg.Col && j < reg.Col+w
				if inside && dst.At(i, j) != src.At(i, j) {
					return false
				}
				if !inside && dst.At(i, j) != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: halo extraction interior always equals the plain extraction.
func TestPropertyHaloInterior(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 2+r.Intn(16), 2+r.Intn(16)
		src := NewMatrix(rows, cols)
		for i := range src.Data {
			src.Data[i] = r.NormFloat64()
		}
		h, w := 1+r.Intn(rows), 1+r.Intn(cols)
		reg := Region{Row: r.Intn(rows - h + 1), Col: r.Intn(cols - w + 1), Height: h, Width: w}
		halo := 1 + r.Intn(3)
		blk, inner, err := CopyOutHalo(src, reg, halo)
		if err != nil {
			return false
		}
		plain, err := CopyOut(src, reg)
		if err != nil {
			return false
		}
		got, err := CopyOut(blk, inner)
		if err != nil {
			return false
		}
		return got.Equal(plain)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
