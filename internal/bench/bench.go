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
//
// Memory: the harness keeps numbers, not runs. Every experiment goes through
// one scorer, a Trial: one input set per benchmark and options, shared by
// the exact reference, the GPU baseline and every scored run. Each run is
// reduced to a scalar Cell as soon as it finishes and its report dropped, so
// no tensor outlives the benchmark it scores, and a Matrix of cells is what
// Figs. 6–8, 10, 11 and Table 3 are views over.
package bench

import (
	"fmt"

	"shmt"
	"shmt/internal/metrics"
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

// Cell is one scored run: the scalars the figures read and nothing else, so
// no tensor outlives the run it scores.
type Cell struct {
	// Makespan is the run's virtual latency in seconds.
	Makespan float64
	// Speedup is baseline makespan / Makespan (Fig. 6's y-axis).
	Speedup float64
	// MAPE is the mean absolute percentage error vs the exact reference, as
	// a fraction (Fig. 7); 0 when the trial scores speed only.
	MAPE float64
	// SSIM is the structural similarity vs the exact reference (Fig. 8); set
	// for image benchmarks only.
	SSIM float64
	// Energy is the run's platform energy (Fig. 10).
	Energy shmt.EnergyBreakdown
	// PeakBytes is the run's peak host-memory footprint (Fig. 11).
	PeakBytes int64
	// CommShare is exposed transfer time as a fraction of total device busy
	// time (Table 3).
	CommShare float64
}

// Trial is one benchmark's experiment under fixed options. Its inputs are
// generated once and shared by the exact reference, the GPU baseline and
// every run the trial scores, which holds because a run never writes its
// inputs (TestExecuteLeavesInputsUnchanged).
type Trial struct {
	Bench   Benchmark
	Options Options
	// Inputs are the benchmark's synthetic inputs at Options.Side.
	Inputs []*tensor.Matrix
	// Baseline is the GPU baseline's cell.
	Baseline Cell
	// ref is the exact (CPU fp64) output; nil when the trial scores speed
	// only.
	ref *tensor.Matrix
}

// NewTrial generates the benchmark's inputs and runs the GPU baseline on
// them. With quality set it runs the exact reference first, so that Score
// also reports MAPE and SSIM.
func NewTrial(b Benchmark, o Options, quality bool) (*Trial, error) {
	o = o.withDefaults()
	t := &Trial{Bench: b, Options: o, Inputs: b.Inputs(o.Side, o.Seed)}
	if quality {
		ref, err := t.Execute(o.SessionConfig(b, shmt.PolicyCPUOnly))
		if err != nil {
			return nil, err
		}
		t.ref = ref.Output
	}
	base, err := t.Score(t.Execute(o.SessionConfig(b, shmt.PolicyGPUBaseline)))
	if err != nil {
		return nil, err
	}
	t.Baseline = *base
	t.Baseline.Speedup = 1
	return t, nil
}

// Execute runs the benchmark once on the trial's inputs, in a session built
// from cfg.
func (t *Trial) Execute(cfg shmt.Config) (*shmt.Report, error) {
	s, err := shmt.NewSession(cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	rep, err := s.Execute(t.Bench.Op, t.Inputs, t.Bench.Attrs)
	if err != nil {
		return nil, fmt.Errorf("bench: %s/%s: %w", t.Bench.Name, cfg.Policy, err)
	}
	return rep, nil
}

// Run executes one policy under the trial's options and scores it.
func (t *Trial) Run(pol shmt.PolicyName) (*Cell, error) {
	return t.Score(t.Execute(t.Options.SessionConfig(t.Bench, pol)))
}

// Score reduces one finished run of the trial's benchmark to its cell:
// speedup over the baseline and, when the trial has a reference, MAPE and
// (for image benchmarks) SSIM. A non-nil err is passed through, so a run and
// its scoring read as t.Score(t.Execute(cfg)). The report is not kept.
func (t *Trial) Score(rep *shmt.Report, err error) (*Cell, error) {
	if err != nil {
		return nil, err
	}
	var busy float64
	for _, s := range rep.Busy {
		busy += s
	}
	c := &Cell{
		Makespan:  rep.Makespan,
		Speedup:   metrics.Speedup(t.Baseline.Makespan, rep.Makespan),
		Energy:    rep.Energy,
		PeakBytes: rep.PeakBytes,
		CommShare: rep.Comm.OverheadFraction(busy),
	}
	if t.ref == nil {
		return c, nil
	}
	if c.MAPE, err = metrics.MAPE(t.ref.Data, rep.Output.Data); err != nil {
		return nil, fmt.Errorf("bench: %s MAPE: %w", t.Bench.Name, err)
	}
	if t.Bench.ImageLike {
		if c.SSIM, err = metrics.SSIM(t.ref.Rows, t.ref.Cols, t.ref.Data, rep.Output.Data); err != nil {
			return nil, fmt.Errorf("bench: %s SSIM: %w", t.Bench.Name, err)
		}
	}
	return c, nil
}
