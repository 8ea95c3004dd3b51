// Package tensor provides the dense numeric containers that SHMT moves
// between devices: 1-D vectors and 2-D row-major matrices of float64, plus
// the strided region copies the runtime uses to scatter and gather HLOP
// partitions (the role cudaMemcpy2D plays in the paper's prototype).
//
// All SHMT-visible data is held in float64 on the host; devices convert to
// their native precision (FP32 on the GPU, INT8 on the Edge TPU) at the
// boundary, exactly as the paper's runtime performs data-type casting before
// distributing input data.
package tensor

import (
	"errors"
	"fmt"
	"math"
)

// ElemSize is the width in bytes of the host element type (float64). All
// host-side footprint accounting is in units of ElemSize; devices narrow to
// their native width at the boundary via Device.ElemBytes.
const ElemSize = 8

// Matrix is a dense row-major 2-D array. The zero value is an empty matrix.
//
// A Matrix is either an owner (dense, contiguous storage) or a view carved
// out of another matrix by View: same element type, but consecutive rows may
// be separated by a row stride larger than Cols. Owners always have
// Stride == 0.
type Matrix struct {
	Rows, Cols int
	// Stride is the distance in elements between the starts of consecutive
	// rows. Zero means dense: the effective stride equals Cols. Only views
	// ever carry a non-zero stride.
	Stride int
	Data   []float64
	view   bool
}

// NewMatrix allocates a Rows×Cols matrix of zeros.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Elements returns rows×cols, refusing negative dimensions and a product that
// overflows int.
func Elements(rows, cols int) (int, error) {
	if rows < 0 || cols < 0 || (cols != 0 && rows > math.MaxInt/cols) {
		return 0, fmt.Errorf("tensor: invalid dimensions %dx%d", rows, cols)
	}
	return rows * cols, nil
}

// FromSlice wraps data as a rows×cols matrix without copying. The dimensions
// must be valid (two negative ones, or a product that wraps around, could
// otherwise match len(data)) and len(data) must equal rows*cols.
func FromSlice(rows, cols int, data []float64) (*Matrix, error) {
	if _, err := Elements(rows, cols); err != nil {
		return nil, err
	}
	if rows*cols != len(data) {
		return nil, fmt.Errorf("tensor: %dx%d needs %d elements, got %d", rows, cols, rows*cols, len(data))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}, nil
}

// RowStride returns the distance in elements between consecutive row starts:
// Stride for views that carry one, Cols otherwise.
func (m *Matrix) RowStride() int {
	if m.Stride > 0 {
		return m.Stride
	}
	return m.Cols
}

// IsView reports whether the matrix aliases storage owned by another matrix.
// Views must never be recycled into the arena; PutMatrix refuses them.
func (m *Matrix) IsView() bool { return m.view }

// IsContiguous reports whether the logical elements occupy one gap-free run
// of Data, i.e. Data[0:Rows*Cols] is exactly the row-major payload. Matrices
// with at most one row are always contiguous regardless of stride.
func (m *Matrix) IsContiguous() bool {
	return m.Rows <= 1 || m.Stride == 0 || m.Stride == m.Cols
}

// View returns a strided window onto region r of m without copying. The view
// aliases m's storage: writes through the view land in m. Views compose —
// taking a view of a view yields a view into the original storage.
func (m *Matrix) View(r Region) (*Matrix, error) {
	if !r.In(m.Rows, m.Cols) {
		return nil, fmt.Errorf("%w: view %v in %dx%d", ErrRegionBounds, r, m.Rows, m.Cols)
	}
	s := m.RowStride()
	v := &Matrix{Rows: r.Height, Cols: r.Width, Stride: s, view: true}
	if r.Height > 0 && r.Width > 0 {
		off := r.Row*s + r.Col
		n := (r.Height-1)*s + r.Width
		v.Data = m.Data[off : off+n : off+n]
	}
	return v, nil
}

// ViewInto writes the strided window onto region r of m into dst, with the
// same semantics as View but no per-view heap allocation. Callers that build
// many views at once (plan replay rebinds every partition of a VOP) point dst
// at slots of one backing array. dst is fully overwritten.
func (m *Matrix) ViewInto(dst *Matrix, r Region) error {
	if !r.In(m.Rows, m.Cols) {
		return fmt.Errorf("%w: view %v in %dx%d", ErrRegionBounds, r, m.Rows, m.Cols)
	}
	s := m.RowStride()
	*dst = Matrix{Rows: r.Height, Cols: r.Width, Stride: s, view: true}
	if r.Height > 0 && r.Width > 0 {
		off := r.Row*s + r.Col
		n := (r.Height-1)*s + r.Width
		dst.Data = m.Data[off : off+n : off+n]
	}
	return nil
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 {
	off := i * m.RowStride()
	return m.Data[off : off+m.Cols]
}

// At returns the element at row r, column c.
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.RowStride()+c] }

// Set stores v at row r, column c.
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.RowStride()+c] = v }

// Len returns the number of elements.
func (m *Matrix) Len() int { return m.Rows * m.Cols }

// Bytes returns the footprint of the matrix payload in bytes at the given
// element width (8 for FP64, 4 for FP32, 1 for INT8).
func (m *Matrix) Bytes(elemSize int) int64 { return int64(m.Len()) * int64(elemSize) }

// Clone returns a deep copy. The clone is always dense, even when m is a
// strided view.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	out.CopyFrom(m)
	return out
}

// CopyFrom copies src's elements into m. Shapes must match exactly; either
// side may be a strided view. Contiguous-to-contiguous copies collapse to a
// single memmove; otherwise whole row runs are copied with copy, never an
// element loop.
func (m *Matrix) CopyFrom(src *Matrix) error {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		return fmt.Errorf("tensor: cannot copy %dx%d into %dx%d", src.Rows, src.Cols, m.Rows, m.Cols)
	}
	if m.Len() == 0 {
		return nil
	}
	if m.IsContiguous() && src.IsContiguous() {
		copy(m.Data[:m.Len()], src.Data[:src.Len()])
		return nil
	}
	for i := 0; i < m.Rows; i++ {
		copy(m.Row(i), src.Row(i))
	}
	return nil
}

// Materialize returns a dense copy of m drawn from the scratch arena. The
// caller owns the result and returns it with PutMatrix; m is left untouched.
func Materialize(m *Matrix) *Matrix {
	out := GetMatrixUninit(m.Rows, m.Cols)
	out.CopyFrom(m)
	return out
}

// Equal reports whether two matrices have identical shape and elements.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		mr, or := m.Row(i), o.Row(i)
		for j, v := range mr {
			if v != or[j] && !(math.IsNaN(v) && math.IsNaN(or[j])) {
				return false
			}
		}
	}
	return true
}

// Region identifies a rectangular sub-block of a matrix.
type Region struct {
	Row, Col      int // top-left corner
	Height, Width int
}

// Len returns the number of elements covered by the region.
func (r Region) Len() int { return r.Height * r.Width }

// Bytes returns the payload size of the region at elemSize bytes per element.
func (r Region) Bytes(elemSize int) int64 { return int64(r.Len()) * int64(elemSize) }

// In reports whether the region lies entirely inside an rows×cols matrix.
func (r Region) In(rows, cols int) bool {
	return r.Row >= 0 && r.Col >= 0 && r.Height >= 0 && r.Width >= 0 &&
		r.Row+r.Height <= rows && r.Col+r.Width <= cols
}

func (r Region) String() string {
	return fmt.Sprintf("[%d:%d,%d:%d]", r.Row, r.Row+r.Height, r.Col, r.Col+r.Width)
}

// ErrRegionBounds is returned when a region does not fit in its matrix.
var ErrRegionBounds = errors.New("tensor: region out of bounds")

// CopyOut extracts region r of src into a Height×Width matrix drawn from
// the scratch arena (every element is overwritten, so no zeroing pass is
// needed). It is the gather half of the runtime's cudaMemcpy2D equivalent;
// callers on the steady-state path return the block with PutMatrix.
func CopyOut(src *Matrix, r Region) (*Matrix, error) {
	if !r.In(src.Rows, src.Cols) {
		return nil, fmt.Errorf("%w: %v in %dx%d", ErrRegionBounds, r, src.Rows, src.Cols)
	}
	dst := GetMatrixUninit(r.Height, r.Width)
	if r.Len() == 0 {
		return dst, nil
	}
	s := src.RowStride()
	if r.Col == 0 && r.Width == s {
		// Full-width band of a gap-free source: one memmove instead of a
		// row loop.
		off := r.Row * s
		copy(dst.Data, src.Data[off:off+r.Len()])
		return dst, nil
	}
	for i := 0; i < r.Height; i++ {
		srcOff := (r.Row+i)*s + r.Col
		copy(dst.Data[i*r.Width:(i+1)*r.Width], src.Data[srcOff:srcOff+r.Width])
	}
	return dst, nil
}

// CopyIn writes block into region r of dst. Block must be exactly
// r.Height×r.Width, which may be a view. The runtime lands a private HLOP
// result in the VOP output with it.
func CopyIn(dst *Matrix, r Region, block *Matrix) error {
	if !r.In(dst.Rows, dst.Cols) {
		return fmt.Errorf("%w: %v in %dx%d", ErrRegionBounds, r, dst.Rows, dst.Cols)
	}
	if block.Rows != r.Height || block.Cols != r.Width {
		return fmt.Errorf("tensor: block %dx%d does not match region %v", block.Rows, block.Cols, r)
	}
	if r.Len() == 0 {
		return nil
	}
	s := dst.RowStride()
	if r.Col == 0 && r.Width == s && block.IsContiguous() {
		// Full-width band into a gap-free destination: one memmove.
		off := r.Row * s
		copy(dst.Data[off:off+r.Len()], block.Data)
		return nil
	}
	for i := 0; i < r.Height; i++ {
		dstOff := (r.Row+i)*s + r.Col
		copy(dst.Data[dstOff:dstOff+r.Width], block.Row(i))
	}
	return nil
}

// CopyOutHalo extracts region r of src expanded by up to halo real cells on
// every side, truncating at the matrix edges. Stencil kernels (Hotspot,
// Sobel, Laplacian, MeanFilter, SRAD) need neighbouring rows and columns
// from adjacent partitions; the runtime ships them along with the partition,
// which is also how the paper's data distribution avoids inter-device
// synchronization within a VOP.
//
// Truncation (rather than replicate padding) makes the block's edges
// coincide with the true matrix edges wherever the region touches them, so a
// clamp-boundary kernel run over the block computes exactly the
// whole-matrix semantics on the interior — including for iterated stencils,
// where replicated padding rows would evolve divergently.
//
// The returned region locates the interior block inside the returned matrix.
func CopyOutHalo(src *Matrix, r Region, halo int) (*Matrix, Region, error) {
	if !r.In(src.Rows, src.Cols) {
		return nil, Region{}, fmt.Errorf("%w: %v in %dx%d", ErrRegionBounds, r, src.Rows, src.Cols)
	}
	if halo < 0 {
		return nil, Region{}, fmt.Errorf("tensor: negative halo %d", halo)
	}
	top := min(halo, r.Row)
	left := min(halo, r.Col)
	bottom := min(halo, src.Rows-(r.Row+r.Height))
	right := min(halo, src.Cols-(r.Col+r.Width))
	big := Region{
		Row: r.Row - top, Col: r.Col - left,
		Height: r.Height + top + bottom, Width: r.Width + left + right,
	}
	blk, err := CopyOut(src, big)
	if err != nil {
		return nil, Region{}, err
	}
	return blk, Region{Row: top, Col: left, Height: r.Height, Width: r.Width}, nil
}

// ToFloat32 converts the matrix payload to float32, the GPU's native
// precision.
func (m *Matrix) ToFloat32() []float32 {
	out := make([]float32, m.Len())
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out[i*m.Cols+j] = float32(v)
		}
	}
	return out
}

// Stats summarises the value distribution of a slice: the two criticality
// metrics QAWS uses (data range and standard deviation) plus the mean.
type Stats struct {
	Min, Max, Mean, Std float64
	N                   int
}

// Range returns Max-Min.
func (s Stats) Range() float64 { return s.Max - s.Min }

// Summarize computes Stats over data. Empty input yields a zero Stats.
func Summarize(data []float64) Stats {
	if len(data) == 0 {
		return Stats{}
	}
	s := Stats{Min: data[0], Max: data[0], N: len(data)}
	var sum float64
	for _, v := range data {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		sum += v
	}
	s.Mean = sum / float64(len(data))
	var ss float64
	for _, v := range data {
		d := v - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(len(data)))
	return s
}
