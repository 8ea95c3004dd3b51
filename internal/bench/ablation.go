package bench

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"shmt"
	"shmt/internal/core"
	"shmt/internal/device"
	"shmt/internal/device/cpu"
	"shmt/internal/device/gpu"
	"shmt/internal/device/tpu"
	"shmt/internal/hlop"
	"shmt/internal/metrics"
	"shmt/internal/sched"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// Ablations probe the design choices DESIGN.md calls out, beyond the
// paper's own figures: HLOP granularity, double buffering, and the
// data-center device ratio the paper argues the prototype represents
// (§4.1: "the ratio of computing power between Maxwell GPUs and Edge TPUs
// resembles those on data center servers").

// AblationGranularityRow is one HLOP-count setting.
type AblationGranularityRow struct {
	Partitions int
	// Speedup is the QAWS-TS geomean speedup over the GPU baseline at the
	// same granularity.
	Speedup float64
}

// AblationGranularity sweeps the HLOP count: too few partitions starve the
// stealing scheduler, too many drown in dispatch overhead — the tension
// behind §3.4's page-granularity rule.
func AblationGranularity(o Options, counts []int) ([]AblationGranularityRow, error) {
	o = o.withDefaults()
	if len(counts) == 0 {
		counts = []int{4, 16, 64, 256}
	}
	var rows []AblationGranularityRow
	for _, n := range counts {
		ro := o
		ro.Partitions = n
		var spds []float64
		for _, b := range Benchmarks {
			spd, err := speedup(b, ro, shmt.PolicyQAWSTS)
			if err != nil {
				return nil, err
			}
			spds = append(spds, spd)
		}
		rows = append(rows, AblationGranularityRow{Partitions: n, Speedup: metrics.GeoMean(spds)})
	}
	return rows, nil
}

// AblationDoubleBufferRow compares the same policy with and without
// transfer/compute overlap.
type AblationDoubleBufferRow struct {
	Benchmark            string
	WithOverlap, Without float64 // speedups over the GPU baseline
}

// AblationDoubleBuffer quantifies §5.6's claim that double buffering hides
// the communication latency: work stealing with overlap vs without.
func AblationDoubleBuffer(o Options) ([]AblationDoubleBufferRow, error) {
	o = o.withDefaults()
	var rows []AblationDoubleBufferRow
	for _, b := range Benchmarks {
		t, err := NewTrial(b, o, false)
		if err != nil {
			return nil, err
		}
		with, err := t.Run(shmt.PolicyWorkStealing)
		if err != nil {
			return nil, err
		}
		without, err := t.Score(t.engine(row(shmt.PolicyWorkStealing).Policy, false, 1, 1))
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationDoubleBufferRow{
			Benchmark:   b.Name,
			WithOverlap: with.Speedup,
			Without:     without.Speedup,
		})
	}
	return rows, nil
}

// AblationDatacenterRow is one benchmark under the data-center device ratio.
type AblationDatacenterRow struct {
	Benchmark string
	// Embedded is the prototype's QAWS-TS speedup; Datacenter scales the
	// accelerator the way a TPUv4:A100 pairing would (§4.1's 275:67 TFLOPS
	// ≈ 4x the prototype's Edge-TPU:GPU ratio).
	Embedded, Datacenter float64
}

// AblationDatacenter re-runs the headline experiment with the accelerator
// ratio of a data-center pairing.
func AblationDatacenter(o Options) ([]AblationDatacenterRow, error) {
	o = o.withDefaults()
	var rows []AblationDatacenterRow
	for _, b := range Benchmarks {
		t, err := NewTrial(b, o, false)
		if err != nil {
			return nil, err
		}
		emb, err := t.Run(shmt.PolicyQAWSTS)
		if err != nil {
			return nil, err
		}
		dc, err := t.Score(t.engine(row(shmt.PolicyQAWSTS).Tuned(o.SamplingRate, 0, 0, 0), true, 1, 4))
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationDatacenterRow{
			Benchmark:  b.Name,
			Embedded:   emb.Speedup,
			Datacenter: dc.Speedup,
		})
	}
	return rows, nil
}

// AblationPrefetchRow is the Edge-TPU staging path with the resident
// shared-operand cache off or on.
type AblationPrefetchRow struct {
	Resident bool
	// WallMS is the measured wall-clock time of the run in milliseconds —
	// the cache is a wall-clock optimization; the virtual timeline is
	// untouched by construction.
	WallMS float64
	// Identical reports whether the output was bit-identical to the
	// cache-off reference (it must always be).
	Identical bool
}

// AblationPrefetch measures the resident shared-operand cache on a
// staging-heavy workload: a banded GEMM on the Edge TPU, whose shared
// right-hand matrix is re-quantized per HLOP with the cache off and quantized
// once (device-resident) with it on. The cache-off run is the reference
// output.
func AblationPrefetch(o Options) ([]AblationPrefetchRow, error) {
	o = o.withDefaults()
	side := o.Side
	if side > 512 {
		side = 512 // GEMM is O(n³) on the simulated kernels; keep the sweep honest but quick
	}
	r := rand.New(rand.NewSource(o.Seed))
	a := tensor.NewMatrix(side, side)
	b := tensor.NewMatrix(side, side)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	for i := range b.Data {
		b.Data[i] = r.NormFloat64()
	}

	var rows []AblationPrefetchRow
	var ref *core.Report
	for _, resident := range []bool{false, true} {
		reg, err := device.NewRegistry(cpu.New(1), tpu.New(tpu.Config{}))
		if err != nil {
			return nil, err
		}
		v, err := vop.New(vop.OpGEMM, a, b)
		if err != nil {
			return nil, err
		}
		eng := &core.Engine{
			Reg:          reg,
			Policy:       row(shmt.PolicyTPUOnly).Policy,
			Spec:         hlop.Spec{TargetPartitions: o.Partitions},
			DoubleBuffer: true,
			Prefetch:     resident,
			Seed:         o.Seed,
		}
		start := time.Now()
		rep, err := eng.Run(v)
		wall := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("bench: resident cache %v: %w", resident, err)
		}
		if ref == nil {
			ref = rep
		}
		rows = append(rows, AblationPrefetchRow{
			Resident:  resident,
			WallMS:    float64(wall.Microseconds()) / 1e3,
			Identical: rep.Output.Equal(ref.Output),
		})
	}
	return rows, nil
}

// AblationPrefetchTable renders the resident-cache ablation.
func AblationPrefetchTable(rows []AblationPrefetchRow) *Table {
	t := &Table{
		Title:  "Ablation — resident shared-operand cache (Edge TPU staging path, banded GEMM)",
		Header: []string{"resident", "wall ms", "bit-identical"},
	}
	for _, r := range rows {
		ident := "yes"
		if !r.Identical {
			ident = "NO"
		}
		res := "off"
		if r.Resident {
			res = "on"
		}
		t.AddRow(res, f2(r.WallMS), ident)
	}
	return t
}

// AblationDSPRow compares the 3-device prototype against the 4-device
// platform with the §2.1 DSP extension, for the image benchmarks in the
// DSP's home domain.
type AblationDSPRow struct {
	Benchmark string
	// ThreeDevice and FourDevice are QAWS-TS speedups over the GPU baseline.
	ThreeDevice, FourDevice float64
	// MAPE3 and MAPE4 are the matching result qualities.
	MAPE3, MAPE4 float64
}

// AblationDSP measures what the DSP extension buys: a third accelerator (and
// a third accuracy tier) for the signal/image kernels.
func AblationDSP(o Options) ([]AblationDSPRow, error) {
	o = o.withDefaults()
	var rows []AblationDSPRow
	for _, b := range Benchmarks {
		if !b.ImageLike {
			continue
		}
		t, err := NewTrial(b, o, true)
		if err != nil {
			return nil, err
		}
		three, err := t.Run(shmt.PolicyQAWSTS)
		if err != nil {
			return nil, err
		}
		cfg := o.SessionConfig(b, shmt.PolicyQAWSTS)
		cfg.UseDSP = true
		four, err := t.Score(t.Execute(cfg))
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationDSPRow{
			Benchmark:   b.Name,
			ThreeDevice: three.Speedup,
			FourDevice:  four.Speedup,
			MAPE3:       three.MAPE,
			MAPE4:       four.MAPE,
		})
	}
	return rows, nil
}

// AblationDSPTable renders the DSP-extension comparison.
func AblationDSPTable(rows []AblationDSPRow) *Table {
	t := &Table{
		Title:  "Ablation — adding the 24-bit DSP as a third accelerator (image kernels)",
		Header: []string{"Benchmark", "3-device speedup", "4-device speedup", "3-dev MAPE", "4-dev MAPE"},
	}
	var s3, s4 []float64
	for _, r := range rows {
		t.AddRow(r.Benchmark, f2(r.ThreeDevice), f2(r.FourDevice), pct(r.MAPE3), pct(r.MAPE4))
		s3 = append(s3, r.ThreeDevice)
		s4 = append(s4, r.FourDevice)
	}
	t.AddRow("GMEAN", f2(metrics.GeoMean(s3)), f2(metrics.GeoMean(s4)), "", "")
	return t
}

// row is the sched.Table row of a policy name.
func row(name shmt.PolicyName) sched.Row {
	r, _ := sched.Lookup(string(name))
	return r
}

// engine runs the trial's benchmark on its inputs with a custom-configured
// engine (for ablations that need device or engine knobs the public Config
// does not expose).
func (t *Trial) engine(pol sched.Policy, doubleBuffer bool, gpuScale, tpuScale float64) (*core.Report, error) {
	slow := t.Options.VirtualScale()
	reg, err := device.NewRegistry(
		cpu.New(slow),
		gpu.New(gpu.Config{Slowdown: slow, ThroughputScale: gpuScale}),
		tpu.New(tpu.Config{Slowdown: slow, ThroughputScale: tpuScale}),
	)
	if err != nil {
		return nil, err
	}
	eng := &core.Engine{
		Reg:          reg,
		Policy:       pol,
		Spec:         hlop.Spec{TargetPartitions: t.Options.Partitions},
		DoubleBuffer: doubleBuffer,
		Seed:         t.Options.Seed,
		HostScale:    slow,
	}
	v, err := vop.New(t.Bench.Op, t.Inputs...)
	if err != nil {
		return nil, err
	}
	for k, x := range t.Bench.Attrs {
		v.SetAttr(k, x)
	}
	v.CriticalFraction = t.Bench.CriticalFraction
	return eng.Run(v)
}

// AblationGranularityTable renders the granularity sweep.
func AblationGranularityTable(rows []AblationGranularityRow) *Table {
	t := &Table{
		Title:  "Ablation — QAWS-TS speedup vs HLOP granularity",
		Header: []string{"partitions", "speedup (gmean)"},
	}
	for _, r := range rows {
		t.AddRow(f0(r.Partitions), f2(r.Speedup))
	}
	return t
}

// AblationDoubleBufferTable renders the overlap comparison.
func AblationDoubleBufferTable(rows []AblationDoubleBufferRow) *Table {
	t := &Table{
		Title:  "Ablation — work stealing with vs without double buffering",
		Header: []string{"Benchmark", "with overlap", "without"},
	}
	var w, wo []float64
	for _, r := range rows {
		t.AddRow(r.Benchmark, f2(r.WithOverlap), f2(r.Without))
		w = append(w, r.WithOverlap)
		wo = append(wo, r.Without)
	}
	t.AddRow("GMEAN", f2(metrics.GeoMean(w)), f2(metrics.GeoMean(wo)))
	return t
}

// AblationDatacenterTable renders the device-ratio comparison.
func AblationDatacenterTable(rows []AblationDatacenterRow) *Table {
	t := &Table{
		Title:  "Ablation — QAWS-TS under the data-center accelerator ratio (§4.1)",
		Header: []string{"Benchmark", "embedded (prototype)", "datacenter (4x TPU)"},
	}
	var e, d []float64
	for _, r := range rows {
		t.AddRow(r.Benchmark, f2(r.Embedded), f2(r.Datacenter))
		e = append(e, r.Embedded)
		d = append(d, r.Datacenter)
	}
	t.AddRow("GMEAN", f2(metrics.GeoMean(e)), f2(metrics.GeoMean(d)))
	return t
}

func f0(v int) string { return strconv.Itoa(v) }
