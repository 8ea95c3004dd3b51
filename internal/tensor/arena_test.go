package tensor

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

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
	m := GetMatrixUninit(8, 8) // 512 bytes: class 512
	base := &m.Data[0]
	PutMatrix(m)
	m2 := GetMatrixUninit(7, 9) // 504 bytes, same class
	if len(m2.Data) != 63 {
		t.Fatalf("len = %d", len(m2.Data))
	}
	if &m2.Data[0] != base {
		t.Log("arena did not reuse the buffer (another test's goroutine took it); not fatal")
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
	// NewMatrix capacities are exact, not a class's; the floor class must
	// still guarantee capacity ≥ class size on the way out.
	m := NewMatrix(3, 33) // 792 bytes, floor class 768
	PutMatrix(m)
	got := GetMatrixUninit(8, 12) // 768 bytes, the same class
	if cap(got.Data) < 96 {
		t.Fatalf("recycled capacity %d < 96", cap(got.Data))
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

// drain empties f and returns what it held.
func (f *FreeList[E]) drain() (kept []E) {
	for k := range f.classes {
		c := &f.classes[k]
		c.mu.Lock()
		kept = append(kept, c.free...)
		clear(c.free)
		c.free = c.free[:0]
		c.mu.Unlock()
	}
	return kept
}

// TestFreeListClasses: a class is the first of 4, 5, 6, 7 times a power of
// two bytes at or above a Get's size, less than 25 % above it, and the last
// at or below a Put's capacity; a buffer comes back for any request its class
// covers, and neither an oversize nor an empty buffer is kept.
func TestFreeListClasses(t *testing.T) {
	if classSize(numClasses-1) != MaxKeptBytes {
		t.Fatalf("the top class is %d bytes, want %d", classSize(numClasses-1), MaxKeptBytes)
	}
	check := func(n int) {
		if k := ceilClass(n); classSize(k) < n || k > 0 && classSize(k-1) >= n || n > 8 && 4*classSize(k) >= 5*n {
			t.Fatalf("Get(%d) rounds up to class %d of %d bytes", n, k, classSize(k))
		}
		if n < 8 {
			return
		}
		if k := floorClass(n); classSize(k) > n || k+1 < numClasses && classSize(k+1) <= n {
			t.Fatalf("Put(%d) rounds down to class %d of %d bytes", n, k, classSize(k))
		}
	}
	for n := 1; n <= 1<<16; n++ {
		check(n)
	}
	for n := 1 << 16; n <= MaxKeptBytes; n += n / 97 {
		check(n - 1)
		check(n)
		check(n + 1)
	}

	var f FreeList[*Matrix]
	if x, c := f.Get(3000); x != nil || c != 3072 {
		t.Fatalf("empty list: %v, capacity %d", x, c)
	}
	a := new(Matrix)
	f.Put(a, 4096+500) // class 4096
	if x, _ := f.Get(4097); x != nil {
		t.Fatal("a 4596-byte buffer served a class it may not fill")
	}
	if x, c := f.Get(3585); x != a || c != 4096 {
		t.Fatalf("got %p capacity %d, want %p 4096", x, c, a)
	}
	if x, _ := f.Get(3585); x != nil {
		t.Fatal("the buffer was handed out twice")
	}
	if f.Put(a, MaxKeptBytes+1) || f.Put(a, 7) || f.Put(a, 0) {
		t.Fatal("an oversize or empty buffer was kept")
	}
	if x, c := f.Get(MaxKeptBytes + 1); x != nil || c != MaxKeptBytes+1 {
		t.Fatalf("oversize: %v, capacity %d", x, c)
	}
}

// TestFreeListBound: a class filled past its count keeps keep(k) buffers —
// at most 8 MiB of them and one more, or two above 8 MiB — and all 85
// classes together at most the stated total, whatever the core count;
// nothing above MaxKeptBytes is kept. A foreign buffer lands in its floor
// class, and no Get returns less capacity than it asked for.
func TestFreeListBound(t *testing.T) {
	// A full list: 44 MiB in the 40 classes under 8 KiB, 366 MiB in the 41
	// up to 8 MiB (8 MiB and one buffer each), two buffers in each of the 4
	// above (104 MiB).
	const perList = 515 << 20
	var f FreeList[*int]
	x := new(int)
	total := 0
	for k := range numClasses {
		size := classSize(k)
		for range keep(k) + 3 {
			f.Put(x, size)
		}
		n := len(f.classes[k].free)
		if n != keep(k) || n > maxPerClass || n*size > max(classBudget, size)+size {
			t.Fatalf("class %d (%d bytes) kept %d buffers, keep %d", k, size, n, keep(k))
		}
		total += n * size
	}
	if total > perList {
		t.Fatalf("the list kept %d bytes, bound %d", total, perList)
	}
	t.Logf("%d MiB kept over %d classes", total>>20, numClasses)
	f.drain()

	if f.Put(x, MaxKeptBytes+1) || f.Put(x, 1<<30) {
		t.Fatal("a buffer above MaxKeptBytes was kept")
	}
	if len(f.drain()) != 0 {
		t.Fatal("the list holds an oversize buffer")
	}

	// A foreign slice (NewMatrix's exact capacity) lands in its floor class,
	// and the next Get of that class finds it with room to spare.
	foreign := NewMatrix(1, 1000) // 8000 bytes: class 7168
	PutMatrix(foreign)
	if got := GetMatrixUninit(1, 896); got != foreign || cap(got.Data) < 896 {
		t.Fatalf("a 7168-byte Get found %p of capacity %d, want %p", got, cap(got.Data), foreign)
	}
	fs := make([]float64, 1000)
	PutFloats(fs)
	if got := GetFloats(896); &got[0] != &fs[0] || cap(got) < 896 {
		t.Fatal("a foreign float slice did not land in its floor class")
	}
	whole := NewMatrix(4, 4)
	v, err := whole.View(Region{Height: 2, Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	matrices.drain()
	PutMatrix(v)
	if len(matrices.drain()) != 0 {
		t.Fatal("a view was kept")
	}
	for n := 1; n < 5000; n += 7 {
		m := GetMatrixUninit(1, n)
		if cap(m.Data) < n {
			t.Fatalf("GetMatrixUninit(1, %d) has capacity %d", n, cap(m.Data))
		}
		PutMatrix(m)
		s := GetFloats(n)
		c := GetComplex(n)
		if cap(s) < n || cap(c) < n {
			t.Fatalf("%d elements: float capacity %d, complex %d", n, cap(s), cap(c))
		}
		PutFloats(s)
		PutComplex(c)
	}
}

// TestFreeListMissKeepsSpare: a miss hands out a buffer of the class's
// capacity and keeps spares of it — seven for a class of 1 MiB or less, one
// for 8 MiB or more — so requests overlapping the first are served without
// allocating; a miss beyond the kept classes keeps nothing.
func TestFreeListMissKeepsSpare(t *testing.T) {
	made := map[*Matrix]int{}
	alloc := func(capacity int) *Matrix {
		m := new(Matrix)
		made[m] = capacity
		return m
	}
	for _, tc := range []struct{ size, capacity, spares int }{
		{3000, 3072, 7},
		{1<<20 - 1, 1 << 20, 7},
		{2 << 20, 2 << 20, 4},
		{5_200_000, 5 << 20, 1}, // a 512² reduce_sum body
		{8 << 20, 8 << 20, 1},
		{MaxKeptBytes, MaxKeptBytes, 1},
	} {
		var f FreeList[*Matrix]
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

	var f FreeList[*Matrix]
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
	const rows, cols = 37, 41 // 1517 elements, 12,136 bytes: class 12,288
	recycled.drain()          // what other tests left
	m := Recycled(rows, cols)
	if m.Rows != rows || m.Cols != cols || len(m.Data) != rows*cols || cap(m.Data) != 1536 || m.IsView() {
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
	recycled.drain() // the spares of the miss above
	Recycle(m)
	if got := Recycled(36, 40); got != m || got.Rows != 36 || len(got.Data) != 36*40 {
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
// nothing — the list holds the slice itself, not a pointer to it.
func TestPutFloatsBoxesNothing(t *testing.T) {
	s := GetFloats(100)
	if n := testing.AllocsPerRun(100, func() {
		PutFloats(s)
		s = GetFloats(100)
	}); n != 0 {
		t.Fatalf("%v allocations per cycle", n)
	}
}

// TestPutComplexBoxesNothing: the complex arena holds its slices the same
// way, so an FFT row's scratch buffer costs nothing once warm.
func TestPutComplexBoxesNothing(t *testing.T) {
	s := GetComplex(100)
	if n := testing.AllocsPerRun(100, func() {
		PutComplex(s)
		s = GetComplex(100)
	}); n != 0 {
		t.Fatalf("%v allocations per cycle", n)
	}
}

// TestIdleLargeClassGivesBack: at a collection a class above 1 MiB gives back
// its buffers if no Get asked for it since the collection before, and keeps
// them if one did; a class of 1 MiB or less keeps them through any number.
func TestIdleLargeClassGivesBack(t *testing.T) {
	var f FreeList[*int]
	f.Put(new(int), 2<<20)
	f.Put(new(int), 1<<20)
	x, _ := f.Get(2 << 20)
	f.Put(x, 2<<20)
	held := func(size int) int { return len(f.classes[floorClass(size)].free) }
	f.trim()
	if held(2<<20) != 1 || held(1<<20) != 1 {
		t.Fatalf("after a collection a Get came before: %d large, %d small kept, want 1, 1", held(2<<20), held(1<<20))
	}
	f.trim()
	if held(2<<20) != 0 || held(1<<20) != 1 {
		t.Fatalf("after an idle collection: %d large, %d small kept, want 0, 1", held(2<<20), held(1<<20))
	}

	// After a collection the arena's lists are trimmed.
	PutMatrix(NewMatrix(512, 512)) // 2 MiB
	c := &matrices.classes[floorClass(2<<20)]
	for start := time.Now(); ; runtime.GC() {
		c.mu.Lock()
		n := len(c.free)
		c.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Since(start) > 10*time.Second {
			t.Fatal("10 s of collections later an idle 2 MiB buffer is still kept")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTrimWhileInUse: collections trim the arena while workers Get and Put
// its large matrices (for -race).
func TestTrimWhileInUse(t *testing.T) {
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				m := GetMatrixUninit(512, 512)
				m.Data[0] = 1
				PutMatrix(m)
			}
		}()
	}
	for range 10 {
		runtime.GC()
	}
	wg.Wait()
}

// TestArenaSurvivesCollections: a collection empties no class, so a warm
// Get/Put cycle of every arena list allocates nothing even with two
// collections before it (a sync.Pool loses its contents over two).
func TestArenaSurvivesCollections(t *testing.T) {
	cycle := func() {
		m := GetMatrixUninit(64, 64)
		s := GetFloats(1000)
		c := GetComplex(1000)
		PutMatrix(m)
		PutFloats(s)
		PutComplex(c)
	}
	cycle()
	for range 5 {
		if n := mallocsAfterCollections(cycle); n != 0 {
			t.Fatalf("%d allocations in a cycle after two collections", n)
		}
	}
}

// mallocsAfterCollections runs two collections, waits until the runtime's
// own clean-up after them is done (the unique package and the lists' trim
// allocate after a collection) — until the process's malloc count stops
// moving for 5 ms — and returns how many objects f allocates.
func mallocsAfterCollections(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for still, i := 0, 0; still < 5 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
		runtime.ReadMemStats(&after)
		if still++; after.Mallocs != before.Mallocs {
			still = 0
		}
		before = after
	}
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
