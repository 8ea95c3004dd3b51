package tensor

import "testing"

func TestArenaMatrixRoundTrip(t *testing.T) {
	m := GetMatrix(5, 7)
	if m.Rows != 5 || m.Cols != 7 || len(m.Data) != 35 {
		t.Fatalf("shape %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("GetMatrix not zeroed at %d: %g", i, v)
		}
	}
	for i := range m.Data {
		m.Data[i] = float64(i)
	}
	PutMatrix(m)

	// A fresh zeroed Get must never expose the previous contents.
	m2 := GetMatrix(5, 7)
	for i, v := range m2.Data {
		if v != 0 {
			t.Fatalf("recycled matrix not zeroed at %d: %g", i, v)
		}
	}
	PutMatrix(m2)
}

func TestArenaReusesCapacityAcrossSizes(t *testing.T) {
	m := GetMatrixUninit(8, 8) // bucket 6 (64 elements)
	base := &m.Data[0]
	PutMatrix(m)
	m2 := GetMatrixUninit(5, 9) // 45 elements, same bucket
	if len(m2.Data) != 45 {
		t.Fatalf("len = %d", len(m2.Data))
	}
	if &m2.Data[0] != base {
		t.Log("arena did not reuse the buffer (GC or another pool user); not fatal")
	}
	PutMatrix(m2)
}

func TestArenaZeroAndNil(t *testing.T) {
	PutMatrix(nil)
	PutMatrix(&Matrix{})
	m := GetMatrixUninit(0, 4)
	if m.Rows != 0 || m.Cols != 4 || len(m.Data) != 0 {
		t.Fatalf("empty matrix shape %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	PutFloats(nil)
	if s := GetFloats(0); s != nil {
		t.Fatalf("GetFloats(0) = %v", s)
	}
	PutComplex(nil)
	if s := GetComplex(0); s != nil {
		t.Fatalf("GetComplex(0) = %v", s)
	}
}

func TestArenaSlices(t *testing.T) {
	f := GetFloats(100)
	if len(f) != 100 || cap(f) < 100 {
		t.Fatalf("floats len %d cap %d", len(f), cap(f))
	}
	PutFloats(f)
	c := GetComplex(33)
	if len(c) != 33 {
		t.Fatalf("complex len %d", len(c))
	}
	PutComplex(c)
}

func TestPutMatrixAcceptsForeignAllocations(t *testing.T) {
	// NewMatrix capacities are exact (not power-of-two); the floor bucket
	// must still guarantee capacity ≥ bucket size on the way out.
	m := NewMatrix(3, 33) // 99 elements, floor bucket 6 (64)
	PutMatrix(m)
	got := GetMatrixUninit(8, 8) // bucket 6 wants cap ≥ 64
	if cap(got.Data) < 64 {
		t.Fatalf("recycled capacity %d < 64", cap(got.Data))
	}
	PutMatrix(got)
}

func TestCopyOutStillCorrectFromArena(t *testing.T) {
	src := NewMatrix(4, 4)
	for i := range src.Data {
		src.Data[i] = float64(i)
	}
	blk, err := CopyOut(src, Region{Row: 1, Col: 1, Height: 2, Width: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 6, 9, 10}
	for i, v := range want {
		if blk.Data[i] != v {
			t.Fatalf("blk.Data[%d] = %g want %g", i, blk.Data[i], v)
		}
	}
	PutMatrix(blk)
}

// TestFreeListClasses: a buffer comes back for any request its class covers,
// the miss capacity is the one that returns a buffer to the class it was asked
// from, and neither an oversize buffer nor a ninth of a class is kept.
func TestFreeListClasses(t *testing.T) {
	f := NewFreeList[Matrix]()
	if x, c := f.Get(3000); x != nil || c != 4096 {
		t.Fatalf("empty list: %v, capacity %d", x, c)
	}
	a := new(Matrix)
	f.Put(a, 4096+500) // class 12: capacity ≥ 4096
	if x, _ := f.Get(4097); x != nil {
		t.Fatal("a 4596-byte buffer served a class it may not fill")
	}
	if x, c := f.Get(2049); x != a || c != 4096 {
		t.Fatalf("got %p capacity %d, want %p 4096", x, c, a)
	}
	if x, _ := f.Get(2049); x != nil {
		t.Fatal("the buffer was handed out twice")
	}

	f.Put(a, MaxKeptBytes+1)
	f.Put(a, 0)
	if x, c := f.Get(MaxKeptBytes + 1); x != nil || c != MaxKeptBytes+1 {
		t.Fatalf("oversize: %v, capacity %d", x, c)
	}
	if x, c := f.Get(MaxKeptBytes); x != nil || c != MaxKeptBytes {
		t.Fatalf("an oversize or empty buffer was kept: %v, capacity %d", x, c)
	}

	for i := 0; i < cap(f[6])+3; i++ {
		f.Put(new(Matrix), 64)
	}
	n := 0
	for x, _ := f.Get(64); x != nil; x, _ = f.Get(64) {
		n++
	}
	if n != cap(f[6]) {
		t.Fatalf("class kept %d buffers, want %d", n, cap(f[6]))
	}
}

// TestFreeListMissKeepsSpare: a miss hands out a buffer of the class's
// capacity and keeps spares of it — a class of 1 MiB or less fills, one of
// 8 MiB or more keeps one — so requests overlapping the first are served
// without allocating; a miss beyond the kept classes keeps nothing.
func TestFreeListMissKeepsSpare(t *testing.T) {
	made := map[*Matrix]int{}
	alloc := func(capacity int) *Matrix {
		m := new(Matrix)
		made[m] = capacity
		return m
	}
	for _, tc := range []struct{ size, capacity, spares int }{
		{3000, 4096, 7},
		{1<<20 - 1, 1 << 20, 7},
		{2 << 20, 2 << 20, 4},
		{8 << 20, 8 << 20, 1},
		{MaxKeptBytes, MaxKeptBytes, 1},
	} {
		f := NewFreeList[Matrix]()
		clear(made)
		x, c := f.Get(tc.size)
		if x != nil || c != tc.capacity {
			t.Fatalf("an empty list served %p, capacity %d", x, c)
		}
		a := f.Miss(c, alloc)
		kept := 0
		for x, _ := f.Get(tc.size); x != nil; x, _ = f.Get(tc.size) {
			if x == a || made[x] != tc.capacity {
				t.Fatalf("%d-byte class: a spare is %p of %d bytes (handed out %p)", tc.capacity, x, made[x], a)
			}
			kept++
		}
		if kept != tc.spares || len(made) != kept+1 || made[a] != tc.capacity {
			t.Fatalf("%d-byte class: a miss allocated %d buffers and kept %d, want %d spares",
				tc.capacity, len(made), kept, tc.spares)
		}
	}

	f := NewFreeList[Matrix]()
	clear(made)
	_, c := f.Get(MaxKeptBytes + 1)
	if f.Miss(c, alloc) == nil || len(made) != 1 {
		t.Fatalf("an oversize miss allocated %d buffers, want 1", len(made))
	}
	if x, _ := f.Get(MaxKeptBytes + 1); x != nil {
		t.Fatal("an oversize spare was kept")
	}
}

// TestRecycledMatrix: what Recycle takes, Recycled hands out again at any
// shape of its class, and nil and views never enter the list.
func TestRecycledMatrix(t *testing.T) {
	const rows, cols = 37, 41 // 1517 elements: class 2048
	for c := range recycled { // empty the list of what other tests left
		for len(recycled[c]) > 0 {
			<-recycled[c]
		}
	}
	m := Recycled(rows, cols)
	if m.Rows != rows || m.Cols != cols || len(m.Data) != rows*cols || cap(m.Data) != 2048 || m.IsView() {
		t.Fatalf("%dx%d, len %d cap %d", m.Rows, m.Cols, len(m.Data), cap(m.Data))
	}
	v, err := m.View(Region{Row: 1, Col: 1, Height: 2, Width: 2})
	if err != nil {
		t.Fatal(err)
	}
	Recycle(nil)
	Recycle(v)
	if got := Recycled(rows, cols); got == v {
		t.Fatal("a view was recycled")
	}
	for class := recycled[bucketCeil(2048*ElemSize)]; len(class) > 0; { // the spares of the miss above
		<-class
	}
	Recycle(m)
	if got := Recycled(33, 33); got != m || got.Rows != 33 || len(got.Data) != 33*33 {
		t.Fatalf("got %p (%dx%d), want %p reshaped", got, got.Rows, got.Cols, m)
	}
	if e := Recycled(0, 5); e.Rows != 0 || e.Cols != 5 || len(e.Data) != 0 {
		t.Fatalf("empty: %dx%d len %d", e.Rows, e.Cols, len(e.Data))
	}
	huge := Recycled(1, MaxKeptBytes/ElemSize+1)
	if cap(huge.Data) != len(huge.Data) {
		t.Fatalf("oversize: cap %d for %d elements", cap(huge.Data), len(huge.Data))
	}
	Recycle(huge)
	if got := Recycled(1, MaxKeptBytes/ElemSize+1); got == huge {
		t.Fatal("an oversize matrix was kept")
	}
}

// TestPutFloatsBoxesNothing: a Put/Get cycle of the float arena allocates
// nothing — the slice header travels in a recycled pointer.
func TestPutFloatsBoxesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	s := GetFloats(100)
	if n := testing.AllocsPerRun(100, func() {
		PutFloats(s)
		s = GetFloats(100)
	}); n != 0 {
		t.Fatalf("%v allocations per cycle", n)
	}
}

// TestPutComplexBoxesNothing: the complex arena recycles its slice headers the
// same way, so an FFT row's scratch buffer costs nothing once warm.
func TestPutComplexBoxesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	s := GetComplex(100)
	if n := testing.AllocsPerRun(100, func() {
		PutComplex(s)
		s = GetComplex(100)
	}); n != 0 {
		t.Fatalf("%v allocations per cycle", n)
	}
}
