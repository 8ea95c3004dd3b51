// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§5) from the SHMT library — the same
// benchmarks (Table 2), the same policy set (Figs. 6–8), the same sweeps
// (Figs. 9 and 12), and the same accounting (Fig. 10, Fig. 11, Table 3).
//
// Scale: the paper's default input is 8192×8192 (67M elements). The harness
// runs each benchmark at Side×Side (default 2048, the size the paper itself
// uses for its Fig. 9 sampling study) with the session's VirtualScale set to
// (8192/Side)², which reproduces the full-size virtual timeline exactly —
// same HLOP count, same per-HLOP costs, same overhead ratios — while quality
// is measured on the smaller data. Fig. 12 is the exception: it sweeps real
// problem sizes at VirtualScale 1, because size-dependent overhead is the
// effect under study there.
package bench

import (
	"fmt"
	"sync"

	"shmt"
	"shmt/internal/tensor"
	"shmt/internal/workload"
)

// FullSide is the paper's default input edge (8192, §5.1).
const FullSide = 8192

// PaperSamplingRate is the QAWS default sampling rate (2^-15, Fig. 9's
// knee). Sessions receive the virtual-equivalent rate so partitions see the
// same sample count as at full size.
const PaperSamplingRate = 1.0 / (1 << 15)

// Benchmark is one Table 2 application.
type Benchmark struct {
	// Name as the paper spells it.
	Name string
	// Category from Table 2.
	Category string
	// Baseline names the paper's baseline implementation source.
	Baseline string
	// Op is the VOP the kernel maps to.
	Op shmt.Op
	// Attrs are the kernel's scalar parameters.
	Attrs map[string]float64
	// ImageLike marks the six image benchmarks Fig. 8 scores with SSIM.
	ImageLike bool
	// CriticalFraction is the per-application top-K hint (§3.5: "the
	// threshold values of K and L are application-dependent").
	CriticalFraction float64
}

// Benchmarks lists the paper's ten applications in Table 2 order.
var Benchmarks = []Benchmark{
	{Name: "Blackscholes", Category: "Finance", Baseline: "CUDA Examples", Op: shmt.OpParabolicPDE,
		Attrs: map[string]float64{"r": 0.02, "sigma": 0.30, "t": 1}, CriticalFraction: 0.25},
	{Name: "DCT8x8", Category: "Image Processing", Baseline: "CUDA Examples", Op: shmt.OpDCT8x8,
		ImageLike: true, CriticalFraction: 0.25},
	{Name: "DWT", Category: "Signal Processing", Baseline: "Rodinia 3.1", Op: shmt.OpFDWT97,
		ImageLike: true, CriticalFraction: 0.25},
	{Name: "FFT", Category: "Signal Processing", Baseline: "CUDA Examples", Op: shmt.OpFFT,
		CriticalFraction: 0.25},
	{Name: "Histogram", Category: "Statistical", Baseline: "OpenCV 4.5.5", Op: shmt.OpReduceHist256,
		Attrs: map[string]float64{"hist_lo": -5, "hist_hi": 6}, CriticalFraction: 0.25},
	{Name: "Hotspot", Category: "Physics Simulation", Baseline: "Rodinia 3.1", Op: shmt.OpStencil,
		CriticalFraction: 0.25},
	{Name: "Laplacian", Category: "Image Processing", Baseline: "OpenCV 4.5.5", Op: shmt.OpLaplacian,
		ImageLike: true, CriticalFraction: 0.25},
	{Name: "MF", Category: "Image Processing", Baseline: "OpenCV 4.5.5", Op: shmt.OpMeanFilter,
		ImageLike: true, CriticalFraction: 0.25},
	{Name: "Sobel", Category: "Image Processing", Baseline: "OpenCV 4.5.5", Op: shmt.OpSobel,
		ImageLike: true, CriticalFraction: 0.25},
	{Name: "SRAD", Category: "Medical Imaging", Baseline: "CUDA Examples", Op: shmt.OpSRAD,
		Attrs: map[string]float64{"lambda": 0.5, "q0sqr": 0.05}, ImageLike: true, CriticalFraction: 0.25},
}

// ByName returns the benchmark with the given (case-sensitive) name.
func ByName(name string) (Benchmark, bool) {
	for _, b := range Benchmarks {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// Inputs builds the benchmark's synthetic input tensors at side×side, the
// paper's "synthetic datasets from each program's dataset generator".
func (b Benchmark) Inputs(side int, seed int64) []*tensor.Matrix {
	switch b.Op {
	case shmt.OpParabolicPDE:
		// Spot prices with regionally volatile swings; strikes skew out of
		// the money so many options price near zero (the paper's
		// Blackscholes MAPE is dominated by near-zero results, §5.3).
		s := workload.Mixed(side, side, workload.Profile{Lo: 80, Hi: 120, CriticalScale: 6}, seed)
		clampMin(s, 1)
		k := workload.Uniform(side, side, 100, 150, seed+1)
		return []*tensor.Matrix{s, k}
	case shmt.OpStencil:
		temp := workload.Mixed(side, side, workload.Profile{Lo: 70, Hi: 90, CriticalScale: 6}, seed)
		power := workload.Uniform(side, side, 0, 1, seed+1)
		return []*tensor.Matrix{temp, power}
	case shmt.OpDCT8x8, shmt.OpFDWT97:
		// Transforms run on the paper's random floating-point inputs (with
		// criticality structure); their coefficients are then nowhere near
		// zero and MAPE stays small, matching Fig. 7.
		return []*tensor.Matrix{workload.Mixed(side, side, workload.Profile{}, seed)}
	case shmt.OpLaplacian, shmt.OpMeanFilter, shmt.OpSobel:
		// Edge detectors run on smooth imagery: their outputs are dominated
		// by near-zero non-edge values, which is exactly what blows up
		// MAPE for Sobel and Laplacian in the paper (§5.3).
		return []*tensor.Matrix{workload.Image(side, side, seed)}
	case shmt.OpSRAD:
		img := workload.Image(side, side, seed)
		clampMin(img, 1) // SRAD intensities must be positive
		return []*tensor.Matrix{img}
	default: // FFT, Histogram, primitives
		return []*tensor.Matrix{workload.Mixed(side, side, workload.Profile{}, seed)}
	}
}

func clampMin(m *tensor.Matrix, lo float64) {
	for i, v := range m.Data {
		if v < lo {
			m.Data[i] = lo
		}
	}
}

// Options configures a harness run.
type Options struct {
	// Side is the input edge length (default 2048).
	Side int
	// Seed drives input generation and sampling (default 1).
	Seed int64
	// Partitions is the HLOP count (default 64).
	Partitions int
	// NoVirtualScale disables the full-size virtual timeline (used by the
	// Fig. 12 size sweep).
	NoVirtualScale bool
	// SamplingRate overrides the paper-default QAWS rate (in full-size
	// units; the harness converts to the virtual-equivalent rate).
	SamplingRate float64
}

func (o Options) withDefaults() Options {
	if o.Side <= 0 {
		o.Side = 2048
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Partitions <= 0 {
		o.Partitions = 64
	}
	if o.SamplingRate <= 0 {
		o.SamplingRate = PaperSamplingRate
	}
	return o
}

// VirtualScale returns the platform slowdown that maps a Side-sized run onto
// the full 8192² timeline.
func (o Options) VirtualScale() float64 {
	if o.NoVirtualScale {
		return 1
	}
	full := float64(FullSide) * float64(FullSide)
	n := float64(o.Side) * float64(o.Side)
	if n >= full {
		return 1
	}
	return full / n
}

// SessionConfig builds the session configuration for a policy under these
// options.
func (o Options) SessionConfig(b Benchmark, pol shmt.PolicyName) shmt.Config {
	scale := o.VirtualScale()
	return shmt.Config{
		Policy:           pol,
		TargetPartitions: o.Partitions,
		SamplingRate:     o.SamplingRate, // sessions scale sampling internally
		CriticalFraction: b.CriticalFraction,
		Seed:             o.Seed,
		VirtualScale:     scale,
		// The paper's figures measure per-invocation planning (sampling
		// overhead is part of what Figs. 6 and 9 report), so experiment
		// sessions never replay memoized plans.
		PlanCache: shmt.PlanCacheConfig{Disabled: true},
	}
}

// Run executes one benchmark under one policy and returns the report.
func Run(b Benchmark, pol shmt.PolicyName, o Options) (*shmt.Report, error) {
	o = o.withDefaults()
	s, err := shmt.NewSession(o.SessionConfig(b, pol))
	if err != nil {
		return nil, err
	}
	defer s.Close()
	inputs := b.Inputs(o.Side, o.Seed)
	rep, err := s.Execute(b.Op, inputs, b.Attrs)
	if err != nil {
		return nil, fmt.Errorf("bench: %s/%s: %w", b.Name, pol, err)
	}
	return rep, nil
}

// refCache memoizes exact reference outputs per (benchmark, side, seed,
// partitions) so the policy matrix does not recompute them.
var refCache sync.Map

// Reference returns the exact (CPU fp64) output for the benchmark under the
// options, cached.
func Reference(b Benchmark, o Options) (*tensor.Matrix, error) {
	o = o.withDefaults()
	key := fmt.Sprintf("%s/%d/%d/%d", b.Name, o.Side, o.Seed, o.Partitions)
	if v, ok := refCache.Load(key); ok {
		return v.(*tensor.Matrix), nil
	}
	rep, err := Run(b, shmt.PolicyCPUOnly, o)
	if err != nil {
		return nil, err
	}
	refCache.Store(key, rep.Output)
	return rep.Output, nil
}
