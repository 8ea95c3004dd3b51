// Package workload generates the synthetic datasets the paper's benchmarks
// run on ("the default input data size for each benchmark contains 8192x8192
// randomly generated floating-point numbers", §5.1).
//
// Real application inputs are not uniformly critical — QAWS exists because
// some regions have wide value distributions while others are tame. The
// generator therefore plants a configurable fraction of high-variance
// "critical" tiles among low-variance background, with a seeded RNG for
// reproducibility.
package workload

import (
	"math"
	"math/rand"

	"shmt/internal/tensor"
)

// Profile describes a synthetic input's value distribution.
type Profile struct {
	// Lo and Hi bound the background (non-critical) values.
	Lo, Hi float64
	// CriticalFraction of tiles get the wide distribution (default 0.25).
	CriticalFraction float64
	// CriticalScale multiplies the value spread inside critical tiles
	// (default 8).
	CriticalScale float64
	// TileSize is the granularity at which criticality varies (default 256).
	TileSize int
}

func (p Profile) withDefaults() Profile {
	if p.Hi == p.Lo {
		p.Lo, p.Hi = 0, 1
	}
	if p.CriticalFraction == 0 {
		p.CriticalFraction = 0.25
	}
	if p.CriticalScale == 0 {
		p.CriticalScale = 8
	}
	if p.TileSize == 0 {
		p.TileSize = 256
	}
	return p
}

// Uniform returns a rows×cols matrix of uniform values in [lo, hi).
func Uniform(rows, cols int, lo, hi float64, seed int64) *tensor.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = lo + (hi-lo)*rng.Float64()
	}
	return m
}

// Mixed returns a matrix following the profile: every tile draws its bulk
// uniformly from [Lo,Hi); critical tiles additionally ride a smooth
// wide-amplitude swing of magnitude CriticalScale×(Hi-Lo)/2.
//
// The swing is what makes a tile "critical" in the paper's sense: its value
// distribution is CriticalScale× wider, so an INT8 affine quantization must
// stretch its scale across the swing and the tile's fine structure (the
// noise the kernels actually respond to) quantizes CriticalScale× more
// coarsely. Because the swing is smooth, a handful of samples anywhere in
// the tile reveals the wide range — matching QAWS's premise that cheap
// range/σ sampling identifies critical partitions.
func Mixed(rows, cols int, p Profile, seed int64) *tensor.Matrix {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	m := tensor.NewMatrix(rows, cols)

	mid := (p.Lo + p.Hi) / 2
	halfBg := (p.Hi - p.Lo) / 2

	// Amplitude lattice at tile corners, bilinearly interpolated, so the
	// wide-swing field is continuous everywhere: a stencil HLOP's halo then
	// carries the same distribution as its interior and per-partition
	// quantization calibration is faithful. A corner is "hot" with a
	// probability chosen so roughly CriticalFraction of tiles touch a hot
	// corner.
	tilesR := (rows + p.TileSize - 1) / p.TileSize
	tilesC := (cols + p.TileSize - 1) / p.TileSize
	pHot := 1 - math.Pow(1-p.CriticalFraction, 0.25)
	amp := make([]float64, (tilesR+1)*(tilesC+1))
	for i := range amp {
		if rng.Float64() < pHot {
			amp[i] = halfBg * p.CriticalScale
		}
	}
	phase := rng.Float64() * 2 * 3.141592653589793

	// ~3.7 swing periods per tile: incommensurate with the tile size so
	// sampled positions land on varied swing phases in every tile.
	freq := 2 * 3.141592653589793 * 3.7 / float64(p.TileSize)
	for i := 0; i < rows; i++ {
		ti := i / p.TileSize
		fy := float64(i%p.TileSize) / float64(p.TileSize)
		for j := 0; j < cols; j++ {
			tj := j / p.TileSize
			fx := float64(j%p.TileSize) / float64(p.TileSize)
			a00 := amp[ti*(tilesC+1)+tj]
			a01 := amp[ti*(tilesC+1)+tj+1]
			a10 := amp[(ti+1)*(tilesC+1)+tj]
			a11 := amp[(ti+1)*(tilesC+1)+tj+1]
			a := a00*(1-fy)*(1-fx) + a01*(1-fy)*fx + a10*fy*(1-fx) + a11*fy*fx

			v := mid + halfBg*(2*rng.Float64()-1) +
				a*math.Sin(freq*float64(i+j)+phase)
			m.Data[i*cols+j] = v
		}
	}
	return m
}

// Image returns a synthetic "photograph": smooth low-frequency background
// with sharp-edged rectangles and impulse speckle, so edge-detection kernels
// (Sobel, Laplacian) produce the near-zero-dominated outputs the paper
// discusses in §5.3, and SRAD has speckle to remove. Values lie in [0, 255].
func Image(rows, cols int, seed int64) *tensor.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := tensor.NewMatrix(rows, cols)

	// Smooth background: sum of a few low-frequency ramps.
	ax, ay := rng.Float64()*0.02, rng.Float64()*0.02
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Data[i*cols+j] = 96 + 32*math.Sin(ax*float64(i))*math.Sin(ay*float64(j))
		}
	}
	// Sharp rectangles (edges).
	nRects := 4 + rng.Intn(8)
	for k := 0; k < nRects; k++ {
		r0 := rng.Intn(rows)
		c0 := rng.Intn(cols)
		h := 1 + rng.Intn(rows/4+1)
		w := 1 + rng.Intn(cols/4+1)
		v := 255 * rng.Float64()
		for i := r0; i < min(r0+h, rows); i++ {
			for j := c0; j < min(c0+w, cols); j++ {
				m.Data[i*cols+j] = v
			}
		}
	}
	// Mild multiplicative speckle (strong enough for SRAD to remove,
	// gentle enough that non-edge gradients stay near zero).
	for i := range m.Data {
		m.Data[i] *= 1 + 0.02*(2*rng.Float64()-1)
		if m.Data[i] < 0 {
			m.Data[i] = 0
		}
		if m.Data[i] > 255 {
			m.Data[i] = 255
		}
	}
	return m
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
