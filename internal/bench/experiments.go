package bench

import (
	"fmt"
	"math"

	"shmt"
	"shmt/internal/metrics"
	"shmt/internal/workload"
)

// Matrix holds the full policy × benchmark measurement grid the evaluation
// figures are views over.
type Matrix struct {
	Options  Options
	Policies []shmt.PolicyName
	// Cells[benchmark][policy].
	Cells map[string]map[shmt.PolicyName]*Cell
	// Baseline[benchmark] is the GPU baseline's cell.
	Baseline map[string]Cell
}

// EvalPolicies is the policy set of Figs. 6–8, in the paper's legend order.
func EvalPolicies() []shmt.PolicyName {
	return []shmt.PolicyName{
		shmt.PolicyTPUOnly, shmt.PolicyIRA, shmt.PolicySWPipelining,
		shmt.PolicyEven, shmt.PolicyWorkStealing,
		shmt.PolicyQAWSTS, shmt.PolicyQAWSTU, shmt.PolicyQAWSTR,
		shmt.PolicyQAWSLS, shmt.PolicyQAWSLU, shmt.PolicyQAWSLR,
		shmt.PolicyOracle,
	}
}

// RunMatrix executes every benchmark under the GPU baseline and each given
// policy, scoring quality against the exact reference.
func RunMatrix(policies []shmt.PolicyName, o Options) (*Matrix, error) {
	o = o.withDefaults()
	m := &Matrix{
		Options:  o,
		Policies: policies,
		Cells:    map[string]map[shmt.PolicyName]*Cell{},
		Baseline: map[string]Cell{},
	}
	for _, b := range Benchmarks {
		t, err := NewTrial(b, o, true)
		if err != nil {
			return nil, err
		}
		m.Baseline[b.Name] = t.Baseline
		m.Cells[b.Name] = map[shmt.PolicyName]*Cell{}
		for _, pol := range policies {
			if m.Cells[b.Name][pol], err = t.Run(pol); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// GeoMean aggregates one policy's column with the given extractor.
func (m *Matrix) GeoMean(pol shmt.PolicyName, f func(*Cell) float64, imageOnly bool) float64 {
	var vals []float64
	for _, b := range Benchmarks {
		if imageOnly && !b.ImageLike {
			continue
		}
		if c, ok := m.Cells[b.Name][pol]; ok {
			vals = append(vals, f(c))
		}
	}
	return metrics.GeoMean(vals)
}

// speedup is one policy's speedup over the GPU baseline on one benchmark.
func speedup(b Benchmark, o Options, pol shmt.PolicyName) (float64, error) {
	t, err := NewTrial(b, o, false)
	if err != nil {
		return 0, err
	}
	c, err := t.Run(pol)
	if err != nil {
		return 0, err
	}
	return c.Speedup, nil
}

// ---- Fig. 2: potential of SHMT ----

// Fig2Row is one bar group of Fig. 2.
type Fig2Row struct {
	Benchmark string
	// TPUSpeedup is the Edge-TPU-only speedup over the GPU baseline.
	TPUSpeedup float64
	// Conventional is the best single device: max(1, TPUSpeedup).
	Conventional float64
	// SHMTTheoretical is the paper's idealized gain (its Fig. 2 bars follow
	// 2 + TPU ratio: GPU + Edge TPU computing concurrently with staging
	// fully overlapped).
	SHMTTheoretical float64
}

// Fig2 measures the per-kernel device potential (the motivation study).
func Fig2(o Options) ([]Fig2Row, error) {
	o = o.withDefaults()
	var rows []Fig2Row
	for _, b := range Benchmarks {
		r, err := speedup(b, o, shmt.PolicyTPUOnly)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig2Row{
			Benchmark:       b.Name,
			TPUSpeedup:      r,
			Conventional:    math.Max(1, r),
			SHMTTheoretical: 2 + r,
		})
	}
	rows = append(rows, Fig2Row{
		Benchmark:       "GMEAN",
		TPUSpeedup:      geoMeanOf(rows, func(r Fig2Row) float64 { return r.TPUSpeedup }),
		Conventional:    geoMeanOf(rows, func(r Fig2Row) float64 { return r.Conventional }),
		SHMTTheoretical: geoMeanOf(rows, func(r Fig2Row) float64 { return r.SHMTTheoretical }),
	})
	return rows, nil
}

func geoMeanOf[T any](rows []T, f func(T) float64) float64 {
	vals := make([]float64, len(rows))
	for i, r := range rows {
		vals[i] = f(r)
	}
	return metrics.GeoMean(vals)
}

// ---- Fig. 9: sampling-rate sweep ----

// Fig9Row is one sampling rate's aggregate result for QAWS-TS.
type Fig9Row struct {
	// RateLog2 is log2 of the sampling rate (the paper sweeps −21…−14).
	RateLog2 int
	// Speedup and MAPE are geometric means over the ten benchmarks (MAPE
	// uses the geomean for the same reason Fig. 7's GMEAN column does:
	// the near-zero-dominated kernels would otherwise drown the rest).
	Speedup float64
	MAPE    float64
	// PerBenchSpeedup/PerBenchMAPE index by benchmark name.
	PerBenchSpeedup map[string]float64
	PerBenchMAPE    map[string]float64
}

// Fig9 sweeps the QAWS-TS sampling rate over 2^-21 … 2^-14. It loops
// benchmark-outer, so each benchmark's reference and baseline serve all
// eight rates (the GPU baseline samples nothing) and are dropped after it.
func Fig9(o Options) ([]Fig9Row, error) {
	o = o.withDefaults()
	var rows []Fig9Row
	for lg := -21; lg <= -14; lg++ {
		rows = append(rows, Fig9Row{
			RateLog2:        lg,
			PerBenchSpeedup: map[string]float64{},
			PerBenchMAPE:    map[string]float64{},
		})
	}
	for _, b := range Benchmarks {
		t, err := NewTrial(b, o, true)
		if err != nil {
			return nil, err
		}
		for _, row := range rows {
			cfg := o.SessionConfig(b, shmt.PolicyQAWSTS)
			cfg.SamplingRate = math.Pow(2, float64(row.RateLog2))
			c, err := t.Score(t.Execute(cfg))
			if err != nil {
				return nil, err
			}
			row.PerBenchSpeedup[b.Name] = c.Speedup
			row.PerBenchMAPE[b.Name] = c.MAPE
		}
	}
	for i, row := range rows {
		rows[i].Speedup = geoMeanOf(Benchmarks, func(b Benchmark) float64 { return row.PerBenchSpeedup[b.Name] })
		rows[i].MAPE = geoMeanOf(Benchmarks, func(b Benchmark) float64 { return row.PerBenchMAPE[b.Name] })
	}
	return rows, nil
}

// ---- Fig. 10: energy ----

// Fig10Row is one benchmark's energy bars, normalized to the GPU baseline's
// total energy.
type Fig10Row struct {
	Benchmark                            string
	BaselineActive, BaselineIdle         float64
	SHMTActive, SHMTIdle                 float64
	SHMTEnergyTotal, SHMTEDP             float64 // both relative to baseline
	BaselineJoules, SHMTJoules, SavedPct float64
}

// Fig10 derives the energy comparison from an existing matrix (QAWS-TS vs
// the GPU baseline).
func (m *Matrix) Fig10() []Fig10Row {
	var rows []Fig10Row
	for _, b := range Benchmarks {
		base, ok := m.Baseline[b.Name]
		cell := m.Cells[b.Name][shmt.PolicyQAWSTS]
		if !ok || cell == nil {
			continue
		}
		baseTotal := base.Energy.Total()
		shmtTotal := cell.Energy.Total()
		baseEDP := baseTotal * base.Makespan
		shmtEDP := shmtTotal * cell.Makespan
		rows = append(rows, Fig10Row{
			Benchmark:       b.Name,
			BaselineActive:  base.Energy.Active / baseTotal,
			BaselineIdle:    base.Energy.Idle / baseTotal,
			SHMTActive:      cell.Energy.Active / baseTotal,
			SHMTIdle:        cell.Energy.Idle / baseTotal,
			SHMTEnergyTotal: shmtTotal / baseTotal,
			SHMTEDP:         shmtEDP / baseEDP,
			BaselineJoules:  baseTotal,
			SHMTJoules:      shmtTotal,
			SavedPct:        100 * (1 - shmtTotal/baseTotal),
		})
	}
	rows = append(rows, Fig10Row{
		Benchmark:       "GMEAN",
		SHMTEnergyTotal: geoMeanOf(rows, func(r Fig10Row) float64 { return r.SHMTEnergyTotal }),
		SHMTEDP:         geoMeanOf(rows, func(r Fig10Row) float64 { return r.SHMTEDP }),
		SavedPct:        100 * (1 - geoMeanOf(rows, func(r Fig10Row) float64 { return r.SHMTEnergyTotal })),
	})
	return rows
}

// ---- Fig. 11: memory footprint ----

// Fig11Row is one benchmark's footprint ratio.
type Fig11Row struct {
	Benchmark string
	// Ratio is SHMT peak footprint / GPU-baseline peak footprint.
	Ratio float64
}

// Fig11 derives the footprint comparison from an existing matrix.
func (m *Matrix) Fig11() []Fig11Row {
	var rows []Fig11Row
	for _, b := range Benchmarks {
		base := m.Baseline[b.Name]
		cell := m.Cells[b.Name][shmt.PolicyQAWSTS]
		if cell == nil || base.PeakBytes == 0 {
			continue
		}
		rows = append(rows, Fig11Row{
			Benchmark: b.Name,
			Ratio:     float64(cell.PeakBytes) / float64(base.PeakBytes),
		})
	}
	rows = append(rows, Fig11Row{
		Benchmark: "GMEAN",
		Ratio:     geoMeanOf(rows, func(r Fig11Row) float64 { return r.Ratio }),
	})
	return rows
}

// ---- Table 3: communication overhead ----

// Table3Row is one benchmark's communication overhead.
type Table3Row struct {
	Benchmark string
	// OverheadPct is exposed transfer time as a percentage of total device
	// busy time under QAWS-TS.
	OverheadPct float64
}

// Table3 derives communication overheads from an existing matrix.
func (m *Matrix) Table3() []Table3Row {
	var rows []Table3Row
	for _, b := range Benchmarks {
		cell := m.Cells[b.Name][shmt.PolicyQAWSTS]
		if cell == nil {
			continue
		}
		rows = append(rows, Table3Row{
			Benchmark:   b.Name,
			OverheadPct: 100 * cell.CommShare,
		})
	}
	rows = append(rows, Table3Row{
		Benchmark:   "GMEAN",
		OverheadPct: geoMeanOf(rows, func(r Table3Row) float64 { return r.OverheadPct }),
	})
	return rows
}

// ---- Fig. 12: problem-size sweep ----

// Fig12Row is one problem size's speedups (QAWS-TS over GPU baseline at the
// same size, real platform — no virtual scaling).
type Fig12Row struct {
	// Elems is the total input element count (the paper's x-axis: 4K…64M).
	Elems int
	// Side is the square edge length used.
	Side int
	// PerBench indexes speedup by benchmark name; GMean aggregates.
	PerBench map[string]float64
	GMean    float64
}

// Fig12Sides is the default size sweep (4K…16M elements); append 8192 for
// the paper's full 64M point.
var Fig12Sides = []int{64, 128, 256, 512, 1024, 2048, 4096}

// Fig12 sweeps problem sizes at VirtualScale 1.
func Fig12(o Options, sides []int) ([]Fig12Row, error) {
	o = o.withDefaults()
	if len(sides) == 0 {
		sides = Fig12Sides
	}
	var rows []Fig12Row
	for _, side := range sides {
		ro := o
		ro.Side = side
		ro.NoVirtualScale = true
		row := Fig12Row{Elems: side * side, Side: side, PerBench: map[string]float64{}}
		var spds []float64
		for _, b := range Benchmarks {
			spd, err := speedup(b, ro, shmt.PolicyQAWSTS)
			if err != nil {
				return nil, err
			}
			row.PerBench[b.Name] = spd
			spds = append(spds, spd)
		}
		row.GMean = metrics.GeoMean(spds)
		rows = append(rows, row)
	}
	return rows, nil
}

// ElemsLabel formats an element count the way the paper's Fig. 12 axis does.
func ElemsLabel(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// ---- Fig. 1: execution models for a multi-function program ----

// Fig1Row is one execution model's end-to-end result for the five-function
// program of the paper's motivating figure.
type Fig1Row struct {
	Mode     string
	Makespan float64
	Energy   float64
	Speedup  float64 // over the conventional model
}

// Fig1 contrasts the conventional, software-pipelined, and SHMT execution
// models (Fig. 1a/b/c) on a five-function image program.
func Fig1(o Options) ([]Fig1Row, error) {
	o = o.withDefaults()
	img := workload.Image(o.Side, o.Side, o.Seed)
	clampMin(img, 1)
	s, err := shmt.NewSession(shmt.Config{
		Policy:           shmt.PolicyQAWSTS,
		TargetPartitions: o.Partitions,
		SamplingRate:     o.SamplingRate,
		Seed:             o.Seed,
		VirtualScale:     o.VirtualScale(),
		// Measurement session: plan per invocation, like the paper does.
		PlanCache: shmt.PlanCacheConfig{Disabled: true},
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	stages := []shmt.Stage{
		{Name: "A", Op: shmt.OpSRAD, Attrs: map[string]float64{"lambda": 0.5, "q0sqr": 0.05}},
		{Name: "B", Op: shmt.OpMeanFilter},
		{Name: "C", Op: shmt.OpLaplacian},
		{Name: "D", Op: shmt.OpSobel},
		{Name: "E", Op: shmt.OpDCT8x8},
	}
	var rows []Fig1Row
	var conventional float64
	for _, mode := range []shmt.PipelineMode{
		shmt.PipelineConventional, shmt.PipelineSoftware, shmt.PipelineSHMT,
	} {
		res, err := s.ExecutePipeline(img, stages, mode)
		if err != nil {
			return nil, err
		}
		if mode == shmt.PipelineConventional {
			conventional = res.Makespan
		}
		rows = append(rows, Fig1Row{
			Mode:     mode.String(),
			Makespan: res.Makespan,
			Energy:   res.EnergyJoules,
			Speedup:  conventional / res.Makespan,
		})
	}
	return rows, nil
}

// Fig1Table renders the execution-model comparison.
func Fig1Table(rows []Fig1Row) *Table {
	t := &Table{
		Title:  "Fig. 1 — Execution models for a five-function program",
		Header: []string{"model", "makespan (ms)", "energy (J)", "speedup"},
	}
	for _, r := range rows {
		t.AddRow(r.Mode, f2(r.Makespan*1e3), f2(r.Energy), f2(r.Speedup))
	}
	return t
}

// ---- Stability: seed sensitivity of the headline results ----

// StabilityRow summarises one policy's headline gmean across seeds.
type StabilityRow struct {
	Policy   shmt.PolicyName
	Seeds    []int64
	Speedups []float64 // gmean speedup per seed
	MAPEs    []float64 // gmean MAPE per seed
}

// Min/Max of the per-seed speedups.
func (r StabilityRow) SpeedupRange() (lo, hi float64) { return minMax(r.Speedups) }

// MAPERange returns min/max of the per-seed MAPEs.
func (r StabilityRow) MAPERange() (lo, hi float64) { return minMax(r.MAPEs) }

func minMax(vals []float64) (lo, hi float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	lo, hi = vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Stability re-runs the headline comparison (work stealing and QAWS-TS)
// across several workload seeds: the paper's conclusions should not hinge on
// one synthetic dataset draw.
func Stability(o Options, seeds []int64) ([]StabilityRow, error) {
	o = o.withDefaults()
	if len(seeds) == 0 {
		seeds = []int64{1, 2, 3}
	}
	policies := []shmt.PolicyName{shmt.PolicyWorkStealing, shmt.PolicyQAWSTS}
	rows := make([]StabilityRow, len(policies))
	for i, p := range policies {
		rows[i] = StabilityRow{Policy: p, Seeds: seeds}
	}
	for _, seed := range seeds {
		so := o
		so.Seed = seed
		m, err := RunMatrix(policies, so)
		if err != nil {
			return nil, err
		}
		for i, p := range policies {
			rows[i].Speedups = append(rows[i].Speedups,
				m.GeoMean(p, func(c *Cell) float64 { return c.Speedup }, false))
			rows[i].MAPEs = append(rows[i].MAPEs,
				m.GeoMean(p, func(c *Cell) float64 { return c.MAPE }, false))
		}
	}
	return rows, nil
}

// StabilityTable renders the seed-sensitivity summary.
func StabilityTable(rows []StabilityRow) *Table {
	t := &Table{
		Title:  "Stability — headline gmeans across workload seeds",
		Header: []string{"policy", "seeds", "speedup min", "speedup max", "MAPE min", "MAPE max"},
	}
	for _, r := range rows {
		sLo, sHi := r.SpeedupRange()
		mLo, mHi := r.MAPERange()
		t.AddRow(string(r.Policy), fmt.Sprintf("%d", len(r.Seeds)), f2(sLo), f2(sHi), pct(mLo), pct(mHi))
	}
	return t
}
