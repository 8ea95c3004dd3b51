// Package hlop defines high-level operations (HLOPs): the device-sized
// partitions of a VOP that form SHMT's basic scheduling identity (§3.2.2).
//
// An HLOP shares its opcode with the parent VOP but fixes the data size and
// granularity a hardware device can support. The partitioner in this package
// implements §3.3.1's template-based dataset partition: element-wise VOPs
// split into page-aligned row bands, tile-wise VOPs into square tiles
// (≥1024×1024 at the paper's default 8192×8192 input), stencil VOPs carry a
// halo so partitions stay independent, and GEMM row-bands pair with the full
// right-hand matrix.
package hlop

import (
	"fmt"

	"shmt/internal/telemetry"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// HLOP is one schedulable partition of a VOP.
type HLOP struct {
	// ID indexes the HLOP within its VOP (stable across policies).
	ID int
	// Op is the opcode, shared with the parent VOP.
	Op vop.Opcode
	// Parent is the VOP this HLOP was partitioned from; Split re-extracts
	// from it.
	Parent *vop.VOP
	// Region locates this partition's interior in the parent's input space
	// (and, except for GEMM/reductions, in the output space too).
	Region tensor.Region
	// Inputs are the partition's data blocks, halo included where the
	// opcode needs one.
	Inputs []*tensor.Matrix
	// Interior locates the halo-free block inside Inputs[0]; for halo-less
	// opcodes it covers Inputs[0] entirely.
	Interior tensor.Region
	// Attrs are the parent VOP's scalar attributes.
	Attrs map[string]float64
	// Elems is the cost basis for ExecTime: the interior element count,
	// multiplied by the VOP's iteration work factor (vop.VOP.WorkFactor).
	Elems int

	// Criticality is the sampled criticality score (set by the policy).
	Criticality float64
	// Critical marks partitions the policy classified as critical.
	Critical bool
	// AssignedQueue is the initial device-queue index chosen by the policy.
	AssignedQueue int

	// Out, when non-nil, is a strided view into the VOP's output tensor
	// covering Region. Shared-memory devices write their result through it
	// (ExecuteInto returns Out itself), so the result lands without a copy.
	// Devices that ignore it return a fresh buffer instead, which the
	// engine detects by Result != Out and copies into the output.
	Out *tensor.Matrix
	// Result holds the computed partition output after execution.
	Result *tensor.Matrix
	// ExecQueue is the queue index of the device that actually executed the
	// HLOP (differs from AssignedQueue when stolen).
	ExecQueue int
	// Finish is the virtual completion time, stamped by the engine when the
	// HLOP enters its device's completion queue.
	Finish float64
	// ReadyAt is the virtual time the HLOP became available on its current
	// queue: the scheduling overhead for the initial assignment, the
	// rerouting device's clock after a failure or quarantine. The two-stage
	// lane model uses it as the earliest instant the input transfer may
	// start. Transient like Finish — never captured into a plan.
	ReadyAt float64
}

// InputRegion returns the region of Inputs[0] a scheduler samples for
// criticality. For most opcodes that is the halo-free Interior; GEMM's
// Interior describes the *output* band (B-columns wide), so its sampling
// region is the whole A band instead.
func (h *HLOP) InputRegion() tensor.Region {
	if h.Op == vop.OpGEMM {
		return tensor.Region{Row: 0, Col: 0, Height: h.Inputs[0].Rows, Width: h.Inputs[0].Cols}
	}
	return h.Interior
}

// InputBytes returns the total payload the HLOP ships to a device with the
// given element width.
func (h *HLOP) InputBytes(elemSize int) int64 {
	var n int64
	for _, in := range h.Inputs {
		n += in.Bytes(elemSize)
	}
	return n
}

// OutputBytes returns the payload the HLOP ships back.
func (h *HLOP) OutputBytes(elemSize int) int64 {
	if h.Op.IsReduction() {
		r, c := kernelPartialShape(h.Op)
		return int64(r*c) * int64(elemSize)
	}
	if h.Op == vop.OpGEMM {
		return int64(h.Region.Height*h.Parent.Inputs[1].Cols) * int64(elemSize)
	}
	return h.Region.Bytes(elemSize)
}

func kernelPartialShape(op vop.Opcode) (int, int) {
	switch op {
	case vop.OpReduceHist256:
		return 1, 256
	case vop.OpReduceAverage:
		return 1, 2
	default:
		return 1, 1
	}
}

func (h *HLOP) String() string {
	return fmt.Sprintf("hlop{%d %s %v}", h.ID, h.Op, h.Region)
}

// Spec configures the partitioner.
type Spec struct {
	// TargetPartitions is the desired HLOP count (default 64, a few per
	// device queue times the stealing depth the paper's runtime
	// oversubscribes with).
	TargetPartitions int
	// MinVectorElems floors the size of vector-model partitions; the paper
	// requires page multiples — "each partition of floating-point data
	// inputs in the vector processing model should contain at least 1,024
	// consecutive elements" (§3.4). Default 1024.
	MinVectorElems int
	// MinTile floors tile edges (default 64; tiles grow toward 1024 with
	// input size as in §3.4). DCT8x8 tiles stay multiples of 8 regardless.
	MinTile int
}

func (s Spec) withDefaults() Spec {
	if s.TargetPartitions <= 0 {
		s.TargetPartitions = 64
	}
	if s.MinVectorElems <= 0 {
		s.MinVectorElems = 1024
	}
	if s.MinTile <= 0 {
		s.MinTile = 64
	}
	return s
}

// Partition decomposes a VOP into HLOPs per its parallelization model.
func Partition(v *vop.VOP, spec Spec) ([]*HLOP, error) {
	regs, err := Regions(v, spec)
	if err != nil {
		return nil, err
	}
	parts := make([]Planned, len(regs))
	for i, reg := range regs {
		parts[i].Region = reg
	}
	return bind(v, parts)
}

// Regions is the geometry half of Partition: the region of every HLOP, in
// HLOP order (output space for GEMM, input space otherwise). It reads the
// opcode and the inputs' shapes and nothing else, so v's inputs need carry no
// data — which is how the cluster router partitions a request it has not
// decoded.
func Regions(v *vop.VOP, spec Spec) ([]tensor.Region, error) {
	if err := v.Validate(); err != nil {
		return nil, err
	}
	spec = spec.withDefaults()
	rows, cols := v.Inputs[0].Rows, v.Inputs[0].Cols
	switch {
	case v.Op == vop.OpGEMM:
		// Row bands of A, as wide as B: no element floor, a band of one row
		// is still a whole GEMV.
		return rowBands(rows, v.Inputs[1].Cols, spec.TargetPartitions, 0), nil
	case v.Op == vop.OpFFT, v.Op.Model() == vop.Vector:
		// FFT is a per-row transform: bands of whole rows, like a vector op.
		return rowBands(rows, cols, spec.TargetPartitions, spec.MinVectorElems), nil
	default:
		return tiles(v.Op, rows, cols, spec), nil
	}
}

// rowBands splits rows×cols into full-width bands of rows/target rows (at
// least one), grown until a band holds minElems elements.
func rowBands(rows, cols, target, minElems int) []tensor.Region {
	rowsPer := rows / target
	if rowsPer < 1 {
		rowsPer = 1
	}
	for rowsPer*cols < minElems && rowsPer < rows {
		rowsPer++
	}
	regs := make([]tensor.Region, 0, (rows+rowsPer-1)/rowsPer)
	for r := 0; r < rows; r += rowsPer {
		h := rowsPer
		if r+h > rows {
			h = rows - r
		}
		regs = append(regs, tensor.Region{Row: r, Col: 0, Height: h, Width: cols})
	}
	return regs
}

// tiles splits rows×cols into square-ish tiles honouring opcode alignment.
func tiles(op vop.Opcode, rows, cols int, spec Spec) []tensor.Region {
	targetElems := rows * cols / spec.TargetPartitions
	if targetElems < spec.MinTile*spec.MinTile {
		targetElems = spec.MinTile * spec.MinTile
	}
	t := intSqrt(targetElems)
	align := 1
	if op == vop.OpDCT8x8 {
		align = 8
	}
	t = (t / align) * align
	if t < align {
		t = align
	}
	if t < spec.MinTile && spec.MinTile%align == 0 {
		t = spec.MinTile
	}
	if t > rows {
		t = maxAligned(rows, align)
	}
	if t > cols {
		t = maxAligned(cols, align)
	}
	if t < 1 {
		t = 1
	}
	var regs []tensor.Region
	for r := 0; r < rows; r += t {
		h := t
		if r+h > rows {
			h = rows - r
		}
		for c := 0; c < cols; c += t {
			w := t
			if c+w > cols {
				w = cols - c
			}
			regs = append(regs, tensor.Region{Row: r, Col: c, Height: h, Width: w})
		}
	}
	return regs
}

// bind builds the HLOPs of parts (regions in output space for GEMM, input
// space otherwise) over v's inputs, carrying each part's policy fields. All of
// them live in one slab — HLOP, input views, input-pointer array — so binding
// a VOP is two allocations however many partitions it has (halo blocks come
// from the arena). Halo-free inputs alias the parent tensor through strided
// views; halo blocks are materialized because their clamped borders have no
// in-place representation. A GEMM band pairs rows of A, a view, with the
// whole right-hand matrix; a convolution kernel ships whole.
func bind(v *vop.VOP, parts []Planned) ([]*HLOP, error) {
	type slot struct {
		h    HLOP
		view [2]tensor.Matrix // every opcode takes one or two inputs
		ins  [2]*tensor.Matrix
	}
	n, k := len(parts), len(v.Inputs)
	slab := make([]slot, n)
	hs := make([]*HLOP, n)
	halo, wf := v.HaloWidth(), v.WorkFactor()
	var aliased, copied, views int64
	for i := range parts {
		p := &parts[i]
		s := &slab[i]
		reg := p.Region
		s.h = HLOP{
			ID:            i,
			Op:            v.Op,
			Parent:        v,
			Region:        reg,
			Interior:      tensor.Region{Height: reg.Height, Width: reg.Width},
			Attrs:         v.Attrs,
			Elems:         int(float64(reg.Len()) * wf),
			AssignedQueue: p.AssignedQueue,
			Criticality:   p.Criticality,
			Critical:      p.Critical,
		}
		if v.Op == vop.OpGEMM {
			a := v.Inputs[0]
			band := tensor.Region{Row: reg.Row, Height: reg.Height, Width: a.Cols}
			if err := a.ViewInto(&s.view[0], band); err != nil {
				return nil, fmt.Errorf("hlop: partition %d: %w", i, err)
			}
			s.ins[0], s.ins[1] = &s.view[0], v.Inputs[1]
			s.h.Elems = reg.Height * v.Inputs[1].Cols
			aliased += band.Bytes(tensor.ElemSize)
			views++
		} else {
			for j, src := range v.Inputs {
				switch {
				case v.Op == vop.OpConv && j == 1:
					s.ins[j] = src
				case halo > 0:
					blk, inner, err := tensor.CopyOutHalo(src, reg, halo)
					if err != nil {
						return nil, fmt.Errorf("hlop: partition %d: %w", i, err)
					}
					copied += blk.Bytes(tensor.ElemSize)
					s.ins[j] = blk
					s.h.Interior = inner
				default:
					if err := src.ViewInto(&s.view[j], reg); err != nil {
						return nil, fmt.Errorf("hlop: partition %d: %w", i, err)
					}
					s.ins[j] = &s.view[j]
					aliased += reg.Bytes(tensor.ElemSize)
					views++
				}
			}
		}
		s.h.Inputs = s.ins[:k:k]
		hs[i] = &s.h
	}
	telemetry.DatapathBytesAliased.Add(aliased)
	telemetry.DatapathCopiesAvoided.Add(views)
	telemetry.DatapathBytesCopied.Add(copied)
	return hs, nil
}

// Planned is one HLOP's entry in a captured execution plan: the partition
// geometry plus everything the scheduling policy decided. Data blocks are
// deliberately absent — a replay re-extracts them from the new inputs — so a
// plan stays valid across Execute calls that reuse a shape but carry
// different data.
type Planned struct {
	// Region is the partition's region (output space for GEMM, input space
	// otherwise), exactly as Partition produced it.
	Region tensor.Region
	// AssignedQueue, Criticality and Critical are the policy's decisions.
	AssignedQueue int
	Criticality   float64
	Critical      bool
}

// Capture records the replayable part of a freshly planned HLOP list.
func Capture(hs []*HLOP) []Planned {
	ps := make([]Planned, len(hs))
	for i, h := range hs {
		ps[i] = Planned{
			Region:        h.Region,
			AssignedQueue: h.AssignedQueue,
			Criticality:   h.Criticality,
			Critical:      h.Critical,
		}
	}
	return ps
}

// Replay rebuilds HLOPs from a captured plan against v's (possibly new)
// input tensors: partition geometry and the policy's assignment come from
// the plan, while data blocks — views or materialized halo copies — are
// re-extracted exactly as Partition would produce them, into one slab. The
// caller guarantees the plan was captured for the same opcode, input shapes,
// and Spec (the plan cache's key pins all three).
func Replay(v *vop.VOP, parts []Planned) ([]*HLOP, error) {
	if err := v.Validate(); err != nil {
		return nil, err
	}
	return bind(v, parts)
}

// Split halves an HLOP along its taller axis, re-extracting both halves from
// the parent VOP — the runtime's response to a device-memory overflow or a
// granularity mismatch (§3.4). A GEMM band halves by rows. The returned HLOPs
// reuse the original ID for the first half and take newID for the second.
// Splitting a 1-element HLOP fails.
func Split(h *HLOP, newID int) (*HLOP, *HLOP, error) {
	r := h.Region
	var r1, r2 tensor.Region
	align := 1
	if h.Op == vop.OpDCT8x8 {
		align = 8
	}
	switch {
	case h.Op == vop.OpGEMM && r.Height < 2:
		return nil, nil, fmt.Errorf("hlop: cannot split GEMM band %v further", r)
	case h.Op == vop.OpFFT && r.Height < 2:
		// Per-row transforms must keep whole rows together.
		return nil, nil, fmt.Errorf("hlop: cannot split single FFT row %v", r)
	case h.Op == vop.OpGEMM, h.Op == vop.OpFFT, r.Height >= r.Width && r.Height >= 2*align:
		half := alignDown(r.Height/2, align)
		r1 = tensor.Region{Row: r.Row, Col: r.Col, Height: half, Width: r.Width}
		r2 = tensor.Region{Row: r.Row + half, Col: r.Col, Height: r.Height - half, Width: r.Width}
	case r.Width >= 2*align:
		half := alignDown(r.Width/2, align)
		r1 = tensor.Region{Row: r.Row, Col: r.Col, Height: r.Height, Width: half}
		r2 = tensor.Region{Row: r.Row, Col: r.Col + half, Height: r.Height, Width: r.Width - half}
	default:
		return nil, nil, fmt.Errorf("hlop: cannot split %v further", r)
	}
	// Re-extract from the parent: halo-free halves alias it again, halo
	// halves materialize.
	policy := Planned{AssignedQueue: h.AssignedQueue, Criticality: h.Criticality, Critical: h.Critical}
	halves := []Planned{policy, policy}
	halves[0].Region, halves[1].Region = r1, r2
	hs, err := bind(h.Parent, halves)
	if err != nil {
		return nil, nil, err
	}
	a, b := hs[0], hs[1]
	a.ID, b.ID = h.ID, newID
	if h.Out != nil {
		// The halves' output views are sub-views of the parent's, located
		// relative to its region.
		if a.Out, err = h.Out.View(relativeTo(r1, r)); err != nil {
			return nil, nil, err
		}
		if b.Out, err = h.Out.View(relativeTo(r2, r)); err != nil {
			return nil, nil, err
		}
	}
	return a, b, nil
}

// relativeTo re-bases sub (an absolute region inside outer) to coordinates
// relative to outer's origin.
func relativeTo(sub, outer tensor.Region) tensor.Region {
	return tensor.Region{
		Row:    sub.Row - outer.Row,
		Col:    sub.Col - outer.Col,
		Height: sub.Height,
		Width:  sub.Width,
	}
}

func alignDown(v, align int) int {
	if align <= 1 {
		return v
	}
	return (v / align) * align
}

func maxAligned(v, align int) int {
	if align <= 1 {
		return v
	}
	a := (v / align) * align
	if a == 0 {
		a = v
	}
	return a
}

func intSqrt(n int) int {
	if n <= 0 {
		return 0
	}
	x, y := n, (n+1)/2
	for y < x {
		x, y = y, (y+n/y)/2
	}
	return x
}
