package tensor

import (
	"math/bits"
	"runtime"
	"sync"

	"shmt/internal/telemetry"
)

// The recycler: one bounded free list type, FreeList, holds every buffer the
// process churns through — an HLOP's partition block, cast copy, kernel
// scratch and result (GetFloats, GetComplex, GetMatrix, PutMatrix …), a served
// request's tensors (Recycled / Recycle), internal/wire's body buffers and
// index offsets, the router's copy buffers — and Spares, its one-class case,
// the small fixed-size objects a call would otherwise allocate (a pool job,
// a staged set). A collection empties no class that was
// asked for since the collection before, so what a warm request allocates
// does not depend on when the collector last ran.
//
// Ownership rules are strict and simple: a Get transfers exclusive ownership
// to the caller; a Put transfers it back and the buffer must not be touched
// afterwards. A buffer that escapes to user code (Report.Output) is simply
// never Put and becomes garbage: forgetting to Put is always safe,
// double-Putting never is. A tensor is recycled only where its last reader is
// provably done; a request abandoned mid-round is left to the collector.
//
// Classes are quarter-octaves: 4, 5, 6 and 7 times a power of two bytes, from
// 8 bytes to MaxKeptBytes, so a buffer is less than 25 % larger than what it
// was asked for. A Get rounds the size up to its class and a Put rounds the
// capacity down to its class, so no Get returns less capacity than it asked
// for, whoever allocated what was Put. Class k keeps at most keep(k) buffers:
// as many as classBudget (8 MiB) holds plus one, at least two and at most
// maxPerClass — nine of 1 MiB, two from 5 MiB up — whatever the core count.
// Nothing above MaxKeptBytes is kept, so one huge request pins nothing. The
// bytes a list can keep are thus bounded by construction, with no setting
// (TestFreeListBound). A list fills lazily: a class grows to the most buffers
// its callers held at once, up to its count, and keeps them for the life of
// the process, with one exception: a class of the arena's lists (GetFloats,
// GetComplex, GetMatrix) above 1 MiB gives them back at a collection when no
// Get asked for it since the collection before, so the whole-matrix buffers
// of a one-off call (a cold start, a never-seen shape) are not pinned.

const (
	// MaxKeptBytes is the largest capacity a FreeList keeps.
	MaxKeptBytes = 16 << 20
	// classBudget is the bytes a class keeps.
	classBudget = 8 << 20
	maxPerClass = 1024
	sparesKept  = 64 // what a Spares keeps
	// trimAbove is the largest arena class kept through a collection it was
	// not asked for in.
	trimAbove  = 1 << 20
	numClasses = 85 // classSize(84) == MaxKeptBytes
)

// classSize is class k's capacity in bytes, (4 + k%4) << (k/4 + 1).
func classSize(k int) int { return (4 + k&3) << (k>>2 + 1) }

// ceilClass returns the smallest class of at least n bytes.
func ceilClass(n int) int {
	if n <= 8 {
		return 0
	}
	l := bits.Len(uint(n - 1)) // 2^(l-1) < n ≤ 2^l
	return 4*l - 19 + (n-1)>>(l-3)
}

// floorClass returns the largest class of at most c ≥ 8 bytes.
func floorClass(c int) int {
	l := bits.Len(uint(c)) // 2^(l-1) ≤ c < 2^l
	return 4*l - 20 + c>>(l-3)
}

// keep is the most buffers class k keeps: as many as classBudget holds, at
// least one, and one more, so that a Miss's spares and the buffer it handed
// out all come back.
func keep(k int) int { return min(maxPerClass, 1+max(1, classBudget/classSize(k))) }

// class is one class of a free list: a stack of at most a limit of E's. The
// pad puts a cache line between two classes' locks, wherever the list starts,
// so workers taking neighbouring classes do not contend for one line.
type class[E any] struct {
	mu    sync.Mutex
	free  []E
	asked bool // a Get came since the last collection
	_     [64]byte
}

// pop returns the most recently kept E, or the zero E when none is kept.
func (c *class[E]) pop() (x E) {
	c.mu.Lock()
	c.asked = true
	if n := len(c.free) - 1; n >= 0 {
		var zero E
		x, c.free[n] = c.free[n], zero
		c.free = c.free[:n]
	}
	c.mu.Unlock()
	return x
}

// push keeps x if the class holds fewer than limit, and reports whether it did.
func (c *class[E]) push(x E, limit int) bool {
	c.mu.Lock()
	ok := len(c.free) < limit
	if ok {
		c.free = append(c.free, x)
	}
	c.mu.Unlock()
	return ok
}

// trim gives back what the class keeps if no Get came since the last
// collection.
func (c *class[E]) trim() {
	c.mu.Lock()
	if !c.asked {
		clear(c.free)
		c.free = c.free[:0]
	}
	c.asked = false
	c.mu.Unlock()
}

// FreeList is the bounded free list of buffers of type E (a pointer or a
// slice) in quarter-octave classes. The zero value is empty and ready.
type FreeList[E any] struct{ classes [numClasses]class[E] }

// Get returns a kept buffer of at least size bytes, or the zero E, and the
// capacity to allocate on a miss for the buffer to come back to the same
// class.
func (f *FreeList[E]) Get(size int) (x E, capacity int) {
	if size > MaxKeptBytes {
		return x, size // never kept: no class to round up to
	}
	k := ceilClass(size)
	return f.classes[k].pop(), classSize(k)
}

// Miss is the rest of a Get that found nothing: it returns a new buffer of
// capacity bytes from alloc and, when the class is kept, keeps spares, as many
// as 8 MiB holds (at least one, at most seven). A miss means the class holds
// fewer buffers than the requests in flight at once need, so it will miss
// again the first time one more request overlaps them — a coincidence of
// timing that may first happen a thousand requests later. The spares let a
// list reach its working set at its first miss. The arena's own Gets keep no
// spares: a never-seen shape would allocate them inside a timed loop.
func (f *FreeList[E]) Miss(capacity int, alloc func(capacity int) E) E {
	if capacity <= MaxKeptBytes {
		for range max(1, min(7, classBudget/capacity)) {
			f.Put(alloc(capacity), capacity)
		}
	}
	return alloc(capacity)
}

// Put keeps x, whose capacity is capacity bytes, if its class has room, and
// reports whether it did.
func (f *FreeList[E]) Put(x E, capacity int) bool {
	if capacity < 8 || capacity > MaxKeptBytes {
		return false
	}
	k := floorClass(capacity)
	return f.classes[k].push(x, keep(k))
}

// trim gives back the buffers of each class above trimAbove that no Get
// asked for since the last collection.
func (f *FreeList[E]) trim() {
	for k := floorClass(trimAbove) + 1; k < numClasses; k++ {
		f.classes[k].trim()
	}
}

// collected is a marker whose finalizer runs after the next collection: it
// trims the arena's lists and arms the next marker. It is 16 bytes, so that
// it is not batched with other tiny objects, whose finalizers may never run.
type collected [16]byte

func init() { armTrim() }

func armTrim() {
	runtime.SetFinalizer(new(collected), func(*collected) {
		floats.trim()
		complexes.trim()
		matrices.trim()
		armTrim()
	})
}

// Spares is the one-class free list, for small fixed-size objects: it keeps
// at most 64 of them. The zero value is empty and ready.
type Spares[E any] struct{ c class[E] }

// Get returns a kept object, or the zero E when none is kept.
func (s *Spares[E]) Get() E { return s.c.pop() }

// Put keeps x if the list has room.
func (s *Spares[E]) Put(x E) { s.c.push(x, sparesKept) }

// The arena's lists, and the tensors of served requests.
var (
	floats    FreeList[[]float64]
	complexes FreeList[[]complex128]
	matrices  FreeList[*Matrix]
	recycled  FreeList[*Matrix]
)

// Arena hit/miss accounting. The label pointers are resolved once here so the
// hot path is a single gated atomic add per Get.
var (
	arenaFloatHits    = telemetry.ArenaHits.With("float64")
	arenaFloatMisses  = telemetry.ArenaMisses.With("float64")
	arenaCplxHits     = telemetry.ArenaHits.With("complex128")
	arenaCplxMisses   = telemetry.ArenaMisses.With("complex128")
	arenaMatrixHits   = telemetry.ArenaHits.With("matrix")
	arenaMatrixMisses = telemetry.ArenaMisses.With("matrix")
)

func arenaHit(c *telemetry.Counter, bytes int64) {
	c.Inc()
	telemetry.ArenaHitBytes.Add(bytes)
}

func arenaMiss(c *telemetry.Counter, bytes int64) {
	c.Inc()
	telemetry.ArenaMissBytes.Add(bytes)
}

// GetFloats returns a length-n float64 scratch slice with unspecified
// contents. The caller owns it until PutFloats.
func GetFloats(n int) []float64 {
	if n <= 0 {
		return nil
	}
	s, capacity := floats.Get(n * 8)
	if s == nil {
		arenaMiss(arenaFloatMisses, int64(n)*8)
		return make([]float64, n, capacity/8)
	}
	arenaHit(arenaFloatHits, int64(n)*8)
	return s[:n]
}

// PutFloats returns a slice obtained from GetFloats (or any float64 slice
// the caller exclusively owns) to the arena.
func PutFloats(s []float64) { floats.Put(s[:0], cap(s)*8) }

// GetComplex returns a length-n complex128 scratch slice with unspecified
// contents.
func GetComplex(n int) []complex128 {
	if n <= 0 {
		return nil
	}
	s, capacity := complexes.Get(n * 16)
	if s == nil {
		arenaMiss(arenaCplxMisses, int64(n)*16)
		return make([]complex128, n, capacity/16)
	}
	arenaHit(arenaCplxHits, int64(n)*16)
	return s[:n]
}

// PutComplex returns a slice obtained from GetComplex to the arena.
func PutComplex(s []complex128) { complexes.Put(s[:0], cap(s)*16) }

// GetMatrix returns a zeroed rows×cols matrix from the arena — the pooled
// equivalent of NewMatrix.
func GetMatrix(rows, cols int) *Matrix {
	m := GetMatrixUninit(rows, cols)
	clear(m.Data)
	return m
}

// GetMatrixUninit returns a rows×cols matrix whose contents are
// unspecified; the caller must write every element before reading any.
func GetMatrixUninit(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		return NewMatrix(rows, cols) // panics with the canonical message
	}
	n := rows * cols
	if n == 0 {
		return &Matrix{Rows: rows, Cols: cols}
	}
	m, capacity := matrices.Get(n * ElemSize)
	if m == nil {
		arenaMiss(arenaMatrixMisses, int64(n)*ElemSize)
		return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, n, capacity/ElemSize)}
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
	arenaHit(arenaMatrixHits, int64(n)*ElemSize)
	return m
}

// PutMatrix returns a matrix to the arena. The matrix (and any alias of its
// Data) must not be used afterwards. Matrices from NewMatrix or FromSlice
// may also be Put; nil and empty matrices are ignored.
//
// Views are refused: their Data aliases storage owned by another matrix, and
// recycling it would hand the owner's bytes to an unrelated Get (or recycle
// the same buffer twice). Dropping them here makes Put safe to call on mixed
// view/materialized results.
func PutMatrix(m *Matrix) {
	if m == nil || m.view || cap(m.Data) == 0 {
		return
	}
	m.Rows, m.Cols, m.Stride, m.Data = 0, 0, 0, m.Data[:0]
	matrices.Put(m, cap(m.Data)*ElemSize)
}

// Recycled returns a dense rows×cols matrix (rows, cols ≥ 0) from the free
// list, with unspecified contents.
func Recycled(rows, cols int) *Matrix {
	n := rows * cols
	m, capacity := recycled.Get(n * ElemSize)
	if m == nil {
		m = recycled.Miss(capacity, newRecycled)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
	return m
}

func newRecycled(capacity int) *Matrix {
	return &Matrix{Data: make([]float64, 0, capacity/ElemSize)}
}

// Recycle returns to the free list a matrix nothing reads any more: one from
// Recycled, or any the caller exclusively owns. nil and views are ignored.
func Recycle(m *Matrix) {
	if m != nil && !m.view {
		recycled.Put(m, cap(m.Data)*ElemSize)
	}
}
