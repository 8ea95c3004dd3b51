// Package lanes runs the kernels' hot loops four float64 lanes wide on amd64,
// bit for bit. Each routine is a row of one table: an assembly loop, its Go
// twin in the same file (the scalar loop, which runs the tails, every other
// host and every oracle), the CPU features the loop needs, and whether two
// NaNs the row returns must carry the same payload.
//
// A lane repeats its twin's operations in the twin's order: a product is
// rounded before the add it feeds, as the twins' float64(x*y) conversions
// make every architecture do, except where math.Exp's own FMA branch fuses
// them. A block of four holding a value outside a lane's domain (non-finite,
// Exp past its overflow or denormal limits, Log of x ≤ 0) runs through the
// twin, so the bits are the scalar math package's.
//
// At init each row runs both ways on a witness corpus and is switched off if
// the lane and the twin disagree; nothing else selects a row. Rows reports
// the outcome.
package lanes

import "math"

// A Row describes one vector routine.
type Row struct {
	Name  string // the routine
	Needs string // the CPU features its loop uses
	On    bool   // whether it runs in lanes on this host
}

// Rows lists every routine and whether it is on.
func Rows() []Row {
	out := make([]Row, len(table))
	for i, r := range table {
		out[i] = Row{Name: r.name, Needs: r.needs, On: r.on}
	}
	return out
}

// row is one routine of the table.
type row struct {
	name, needs string
	hw          bool // the host has what the loop needs
	// payload says whether a NaN the lane returns must carry the twin's
	// payload. Where two NaNs meet in a commutative operation the first
	// operand's survives, and which comes first in a twin is the Go
	// compiler's choice; such a row only promises a NaN.
	payload bool
	on      bool
	// run computes the row over x and y (the same length) in lanes or by
	// the twin and returns what it wrote; it may overwrite x.
	run func(x, y []float64, lane bool) []float64
}

var (
	rowGEMM      = &row{name: "gemm.tile", needs: "AVX", hw: avx, run: runGEMM}
	rowF32       = &row{name: "cast.f32", needs: "AVX", hw: avx, payload: true, run: runF32}
	rowInt8      = &row{name: "int8.roundtrip", needs: "AVX", hw: avx, payload: true, run: runInt8}
	rowRange     = &row{name: "range.finite", needs: "AVX", hw: avx, payload: true, run: runRange}
	rowD1        = &row{name: "bs.d1", needs: "AVX2", hw: avx2, payload: true, run: runD1}
	rowD2        = &row{name: "bs.d2", needs: "AVX", hw: avx, payload: true, run: runD2}
	rowCND       = &row{name: "bs.cnd", needs: "AVX2", hw: avx2, payload: true, run: runCND}
	rowCall      = &row{name: "bs.call", needs: "AVX", hw: avx, run: runCall}
	rowGather    = &row{name: "fft.gather", needs: "AVX2", hw: avx2, payload: true, run: runGather}
	rowButterfly = &row{name: "fft.butterfly", needs: "AVX", hw: avx, run: runButterfly}
	rowSplit     = &row{name: "fft.split", needs: "AVX", hw: avx, payload: true, run: runSplit}
	rowHypot     = &row{name: "hypot", needs: "AVX", hw: avx, payload: true, run: runHypot}

	table = []*row{rowGEMM, rowF32, rowInt8, rowRange, rowD1, rowD2, rowCND, rowCall,
		rowGather, rowButterfly, rowSplit, rowHypot}
)

// witness is the corpus every row checks itself on at init: sixteen
// ordinary values, cndWitness among them, whose CND differs between
// math.Exp's two branches; then specials and values whose Exp or Log
// leaves the lanes' domain. A row runs on the ordinary values alone, where
// no NaN hides a wrong result, and then on all of them. The first and last
// blocks of four are positive, so d1's quotients with the reversed corpus
// are in its lanes' domain there.
var witness = []float64{
	0.75, 3.5, 0.1, 2, -1.25, 1e-3, cndWitness, 1.5, 0.3, -2.75, -0.6, -0.01, 7, 1e-30, 0.5, 1.0625,
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324, -1e-310, 1e300,
	-40, 38.2, -1e200, math.MaxFloat64, -3, 0.25, 4, 1,
}

func init() {
	cndFMA, cndExpKnown = expBranch()
	if cndFMA {
		rowCND.needs = "AVX2 FMA"
	}
	for _, r := range table {
		r.on = r.hw && (r != rowCND || cndExpKnown) && r.agrees(witness[:16]) && r.agrees(witness)
	}
}

// agrees reports whether the row's lane and twin return the same bits on x
// and x reversed.
func (r *row) agrees(x []float64) bool {
	y := make([]float64, len(x))
	for i, v := range x {
		y[len(x)-1-i] = v
	}
	lane := r.run(append([]float64(nil), x...), y, true)
	twin := r.run(append([]float64(nil), x...), y, false)
	return same(r.payload, lane, twin)
}

// same reports whether a and b hold the same bits, a NaN matching any NaN
// unless payload is set.
func same(payload bool, a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && (payload || a[i] == a[i] || b[i] == b[i]) {
			return false
		}
	}
	return true
}
