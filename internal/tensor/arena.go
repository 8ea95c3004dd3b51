package tensor

import (
	"math/bits"
	"sync"

	"shmt/internal/telemetry"
)

// The scratch arena: size-bucketed sync.Pools for the float64, complex128
// and Matrix buffers the runtime churns through on its hot path. The
// partition → execute → aggregate loop allocates a partition block, a device
// cast copy, kernel stage intermediates, and the result for every HLOP; at
// steady state all of them cycle through these pools instead of the garbage
// collector.
//
// Ownership rules are strict and simple: Get* transfers exclusive ownership
// to the caller; Put* transfers it back and the buffer must not be touched
// afterwards. Buffers that escape to user code (Report.Output, results a
// test holds on to) are simply never Put — the pools treat them as ordinary
// garbage, so forgetting to Put is always safe, double-Putting never is.
//
// Buckets are powers of two: bucket b serves requests of up to 1<<b
// elements and every pooled buffer in it has capacity ≥ 1<<b, so a Get can
// always reslice a pooled buffer to the requested length.
//
// The same rule governs the FreeList at the end of this file, which holds what
// is too large to leave to a sync.Pool — the collector empties one, and each
// miss is then megabytes to allocate again: a served request's tensors
// (Recycled / Recycle) and internal/wire's body buffers. A tensor is recycled
// only where its last reader is provably done; a request abandoned mid-round
// is left to the collector.

const arenaBuckets = 48 // 1<<47 elements ≫ any addressable tensor

var (
	floatPools   [arenaBuckets]sync.Pool // holds *[]float64: a pointer, so that a Put boxes nothing
	complexPools [arenaBuckets]sync.Pool // holds *[]complex128, as floatPools
	matrixPools  [arenaBuckets]sync.Pool // holds *Matrix
)

// floatHeaders and complexHeaders hold the slice headers a Get has emptied,
// for the next Put.
var (
	floatHeaders   Spares[[]float64]
	complexHeaders Spares[[]complex128]
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

// bucketCeil returns the smallest b with 1<<b ≥ n (n ≥ 1).
func bucketCeil(n int) int { return bits.Len(uint(n - 1)) }

// bucketFloor returns the largest b with 1<<b ≤ c (c ≥ 1).
func bucketFloor(c int) int { return bits.Len(uint(c)) - 1 }

// GetFloats returns a length-n float64 scratch slice with unspecified
// contents. The caller owns it until PutFloats.
func GetFloats(n int) []float64 {
	if n <= 0 {
		return nil
	}
	b := bucketCeil(n)
	if b >= arenaBuckets {
		arenaMiss(arenaFloatMisses, int64(n)*8)
		return make([]float64, n)
	}
	if v := floatPools[b].Get(); v != nil {
		arenaHit(arenaFloatHits, int64(n)*8)
		p := v.(*[]float64)
		s := (*p)[:n]
		*p = nil
		floatHeaders.Put(p)
		return s
	}
	arenaMiss(arenaFloatMisses, int64(n)*8)
	return make([]float64, n, 1<<b)
}

// PutFloats returns a slice obtained from GetFloats (or any float64 slice
// the caller exclusively owns) to the arena.
func PutFloats(s []float64) {
	c := cap(s)
	if c == 0 {
		return
	}
	if b := bucketFloor(c); b < arenaBuckets {
		p := floatHeaders.Get()
		if p == nil {
			p = new([]float64)
		}
		*p = s[:0:c]
		floatPools[b].Put(p)
	}
}

// GetComplex returns a length-n complex128 scratch slice with unspecified
// contents.
func GetComplex(n int) []complex128 {
	if n <= 0 {
		return nil
	}
	b := bucketCeil(n)
	if b >= arenaBuckets {
		arenaMiss(arenaCplxMisses, int64(n)*16)
		return make([]complex128, n)
	}
	if v := complexPools[b].Get(); v != nil {
		arenaHit(arenaCplxHits, int64(n)*16)
		p := v.(*[]complex128)
		s := (*p)[:n]
		*p = nil
		complexHeaders.Put(p)
		return s
	}
	arenaMiss(arenaCplxMisses, int64(n)*16)
	return make([]complex128, n, 1<<b)
}

// PutComplex returns a slice obtained from GetComplex to the arena.
func PutComplex(s []complex128) {
	c := cap(s)
	if c == 0 {
		return
	}
	if b := bucketFloor(c); b < arenaBuckets {
		p := complexHeaders.Get()
		if p == nil {
			p = new([]complex128)
		}
		*p = s[:0:c]
		complexPools[b].Put(p)
	}
}

// GetMatrix returns a zeroed rows×cols matrix from the arena — the pooled
// equivalent of NewMatrix.
func GetMatrix(rows, cols int) *Matrix {
	m := GetMatrixUninit(rows, cols)
	clearFloats(m.Data)
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
	b := bucketCeil(n)
	if b >= arenaBuckets {
		arenaMiss(arenaMatrixMisses, int64(n)*8)
		return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, n)}
	}
	m, _ := reserved.Get(n * ElemSize)
	if m == nil {
		if v := matrixPools[b].Get(); v != nil {
			m = v.(*Matrix)
		}
	}
	if m != nil {
		m.Rows, m.Cols = rows, cols
		m.Data = m.Data[:n]
		arenaHit(arenaMatrixHits, int64(n)*8)
		return m
	}
	arenaMiss(arenaMatrixMisses, int64(n)*8)
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, n, 1<<b)}
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
	if m == nil || m.view {
		return
	}
	c := cap(m.Data)
	if c == 0 {
		return
	}
	if b := bucketFloor(c); b < arenaBuckets {
		m.Data = m.Data[:0:c]
		m.Rows, m.Cols, m.Stride = 0, 0, 0
		if c*ElemSize > 1<<20 || !reserved.Put(m, c*ElemSize) {
			matrixPools[b].Put(m)
		}
	}
}

// reserved holds, ahead of matrixPools, eight matrices per class up to 1 MiB
// that a collection cannot empty (larger ones would pin too much memory).
var reserved = NewFreeList[Matrix]()

// clearFloats zeroes s (compiles to a memclr).
func clearFloats(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

// FreeList is a bounded free list of *T buffers in power-of-two size classes:
// class c keeps at most eight buffers, each of capacity ≥ 1<<c bytes, for the
// life of the process, and none above MaxKeptBytes (1<<24), so what a request
// allocates does not depend on when the collector last ran and one huge
// request pins nothing.
type FreeList[T any] [25]chan *T

// MaxKeptBytes is the largest capacity a FreeList keeps.
const MaxKeptBytes = 16 << 20

// NewFreeList returns an empty free list.
func NewFreeList[T any]() *FreeList[T] {
	f := new(FreeList[T])
	for c := range f {
		f[c] = make(chan *T, 8)
	}
	return f
}

// Get returns a kept buffer of at least size bytes, or nil, and the capacity
// to allocate on a miss for the buffer to come back to the same class.
func (f *FreeList[T]) Get(size int) (x *T, capacity int) {
	c := bucketCeil(max(size, 1))
	if c >= len(f) {
		return nil, size // never kept: no class to round up to
	}
	select {
	case x = <-f[c]:
	default:
	}
	return x, 1 << c
}

// Miss is the rest of a Get that returned nil: it returns a new buffer of
// capacity bytes from alloc and, when the class is kept, keeps spares, as many
// as 8 MiB holds (at least one, at most what fills the class). A miss means
// the class holds fewer buffers than the requests in flight at once need, so
// it will miss again the first time one more request overlaps them — a
// coincidence of timing that may first happen a thousand requests later. The
// spares let a list reach its working set at its first miss, so that what a
// warm request allocates does not depend on when, or whether, that
// coincidence happened.
func (f *FreeList[T]) Miss(capacity int, alloc func(capacity int) *T) *T {
	if capacity <= MaxKeptBytes {
		for range max(1, min(cap(f[0])-1, (8<<20)/capacity)) {
			f.Put(alloc(capacity), capacity)
		}
	}
	return alloc(capacity)
}

// Put keeps x, whose capacity is capacity bytes, if its class has room, and
// reports whether it did.
func (f *FreeList[T]) Put(x *T, capacity int) bool {
	if capacity <= 0 || capacity > MaxKeptBytes {
		return false
	}
	select {
	case f[bucketFloor(capacity)] <- x:
		return true
	default:
		return false
	}
}

// Spares is a bounded free list of small fixed-size objects — a fan-out job,
// a loop body, a slice header — for what a sync.Pool would otherwise hold:
// a collection empties a sync.Pool, and refilling it re-grows its per-P
// chains, a few allocations per pool after every collection. Spares keeps at
// most len(free) objects for the life of the process; a Put beyond that
// leaves its object to the collector. The zero value is empty and ready.
type Spares[T any] struct {
	mu   sync.Mutex
	n    int
	free [64]*T
}

// Get returns a kept object, or nil when none is kept.
func (s *Spares[T]) Get() *T {
	s.mu.Lock()
	var x *T
	if s.n > 0 {
		s.n--
		x, s.free[s.n] = s.free[s.n], nil
	}
	s.mu.Unlock()
	return x
}

// Put keeps x if the list has room.
func (s *Spares[T]) Put(x *T) {
	s.mu.Lock()
	if s.n < len(s.free) {
		s.free[s.n] = x
		s.n++
	}
	s.mu.Unlock()
}

var recycled = NewFreeList[Matrix]()

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
