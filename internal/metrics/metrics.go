// Package metrics implements the result-quality and performance measures the
// paper evaluates with: Mean Absolute Percentage Error (MAPE, Fig. 7), the
// Structural Similarity Index Measure (SSIM, Fig. 8), plus RMSE, speedup and
// geometric means for the summary rows.
package metrics

import (
	"errors"
	"fmt"
	"math"
)

// ErrShapeMismatch is returned when two series being compared differ in length.
var ErrShapeMismatch = errors.New("metrics: series lengths differ")

// mapeEpsilon guards the per-element denominator. The paper notes MAPE's
// known weakness on near-zero references (§5.3, citing Kim & Kim 2016); the
// guard keeps single zero-reference elements from producing infinities while
// still letting near-zero-heavy outputs (Sobel, Laplacian) blow the metric
// up, matching the paper's observation.
const mapeEpsilon = 1e-6

// MAPE returns mean(|approx-ref| / max(|ref|, eps)) as a fraction (0.05 =
// 5%).
func MAPE(ref, approx []float64) (float64, error) {
	if len(ref) != len(approx) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrShapeMismatch, len(ref), len(approx))
	}
	if len(ref) == 0 {
		return 0, nil
	}
	var sum float64
	for i := range ref {
		den := math.Abs(ref[i])
		if den < mapeEpsilon {
			den = mapeEpsilon
		}
		sum += math.Abs(approx[i]-ref[i]) / den
	}
	return sum / float64(len(ref)), nil
}

// SSIM computes the global structural similarity index between a reference
// image and an approximation, both given as rows×cols row-major data. It
// uses the standard Wang et al. constants with the dynamic range L taken
// from the reference image. Identical images score exactly 1; the value is
// bounded by [-1, 1].
//
// Following common practice (and sufficient for reproducing Fig. 8's
// orderings), SSIM is computed over 8×8 windows with a stride of 4 and the
// per-window indices averaged.
func SSIM(rows, cols int, ref, approx []float64) (float64, error) {
	if len(ref) != len(approx) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrShapeMismatch, len(ref), len(approx))
	}
	if rows*cols != len(ref) {
		return 0, fmt.Errorf("metrics: %dx%d needs %d elements, got %d", rows, cols, rows*cols, len(ref))
	}
	if len(ref) == 0 {
		return 1, nil
	}

	// Dynamic range of the reference signal.
	lo, hi := ref[0], ref[0]
	for _, v := range ref {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	L := hi - lo
	if L == 0 {
		L = 1
	}
	c1 := (0.01 * L) * (0.01 * L)
	c2 := (0.03 * L) * (0.03 * L)

	const win, stride = 8, 4
	if rows < win || cols < win {
		return ssimWindow(ref, approx, c1, c2), nil
	}

	var total float64
	var n int
	bufR := make([]float64, win*win)
	bufA := make([]float64, win*win)
	for r := 0; r+win <= rows; r += stride {
		for c := 0; c+win <= cols; c += stride {
			k := 0
			for i := 0; i < win; i++ {
				off := (r+i)*cols + c
				copy(bufR[k:k+win], ref[off:off+win])
				copy(bufA[k:k+win], approx[off:off+win])
				k += win
			}
			total += ssimWindow(bufR, bufA, c1, c2)
			n++
		}
	}
	return total / float64(n), nil
}

func ssimWindow(x, y []float64, c1, c2 float64) float64 {
	n := float64(len(x))
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= n
	my /= n
	var vx, vy, cov float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		vx += dx * dx
		vy += dy * dy
		cov += dx * dy
	}
	vx /= n
	vy /= n
	cov /= n
	num := (2*mx*my + c1) * (2*cov + c2)
	den := (mx*mx + my*my + c1) * (vx + vy + c2)
	return num / den
}

// Speedup returns baseline/measured; both must be positive.
func Speedup(baseline, measured float64) float64 {
	if measured <= 0 || baseline <= 0 {
		return 0
	}
	return baseline / measured
}

// GeoMean returns the geometric mean of strictly positive values; zero or
// negative entries are skipped (matching how the paper's GMEAN columns treat
// missing bars). An empty input yields 0.
func GeoMean(vals []float64) float64 {
	var logSum float64
	var n int
	for _, v := range vals {
		if v > 0 {
			logSum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Mean returns the arithmetic mean; an empty input yields 0.
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}
