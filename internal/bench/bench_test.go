package bench

import (
	"math"
	"strings"
	"testing"

	"shmt"
)

// smallOpts keeps harness tests fast: tiny inputs, few partitions.
func smallOpts() Options {
	return Options{Side: 128, Partitions: 4, Seed: 1}
}

func TestBenchmarkTableMatchesPaper(t *testing.T) {
	if len(Benchmarks) != 10 {
		t.Fatalf("benchmark count = %d want 10 (Table 2)", len(Benchmarks))
	}
	names := []string{"Blackscholes", "DCT8x8", "DWT", "FFT", "Histogram",
		"Hotspot", "Laplacian", "MF", "Sobel", "SRAD"}
	for i, want := range names {
		if Benchmarks[i].Name != want {
			t.Fatalf("benchmark %d = %q want %q", i, Benchmarks[i].Name, want)
		}
	}
	imageLike := 0
	for _, b := range Benchmarks {
		if b.ImageLike {
			imageLike++
		}
	}
	if imageLike != 6 {
		t.Fatalf("image benchmarks = %d want 6 (Fig. 8)", imageLike)
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("Sobel"); !ok {
		t.Fatal("Sobel not found")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("unknown benchmark found")
	}
}

func TestInputsShapesAndArity(t *testing.T) {
	for _, b := range Benchmarks {
		inputs := b.Inputs(64, 1)
		if len(inputs) != b.Op.NumInputs() {
			t.Fatalf("%s inputs = %d want %d", b.Name, len(inputs), b.Op.NumInputs())
		}
		for _, in := range inputs {
			if in.Rows != 64 || in.Cols != 64 {
				t.Fatalf("%s input shape %dx%d", b.Name, in.Rows, in.Cols)
			}
		}
	}
}

func TestVirtualScale(t *testing.T) {
	o := Options{Side: 2048}
	if got := o.VirtualScale(); got != 16 {
		t.Fatalf("scale = %g want 16", got)
	}
	o.NoVirtualScale = true
	if o.VirtualScale() != 1 {
		t.Fatal("NoVirtualScale ignored")
	}
	if (Options{Side: 8192}).VirtualScale() != 1 {
		t.Fatal("full size should not scale")
	}
}

func TestRunAllBenchmarksQAWS(t *testing.T) {
	o := smallOpts()
	for _, b := range Benchmarks {
		tr, err := NewTrial(b, o, true)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		c, err := tr.Run(shmt.PolicyQAWSTS)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if c.Makespan <= 0 || c.Speedup <= 0 || c.PeakBytes <= 0 {
			t.Fatalf("%s produced an empty cell: %+v", b.Name, c)
		}
	}
}

// TestExecuteLeavesInputsUnchanged guards the assumption a Trial rests on:
// its reference, baseline and every scored run share one input set, which
// is only sound if no run writes its inputs — a device that quantised in
// place would skew every later run of the trial.
func TestExecuteLeavesInputsUnchanged(t *testing.T) {
	o := Options{Side: 128}.withDefaults()
	pols := append([]shmt.PolicyName{shmt.PolicyCPUOnly, shmt.PolicyGPUBaseline}, EvalPolicies()...)
	for _, b := range Benchmarks {
		tr := &Trial{Bench: b, Options: o, Inputs: b.Inputs(o.Side, o.Seed)}
		want := make([][]uint64, len(tr.Inputs))
		for i, in := range tr.Inputs {
			for _, v := range in.Data {
				want[i] = append(want[i], math.Float64bits(v))
			}
		}
		for _, pol := range pols {
			if _, err := tr.Execute(o.SessionConfig(b, pol)); err != nil {
				t.Fatal(err)
			}
			for i, in := range tr.Inputs {
				for j, v := range in.Data {
					if math.Float64bits(v) != want[i][j] {
						t.Fatalf("%s/%s wrote input %d at %d", b.Name, pol, i, j)
					}
				}
			}
		}
	}
}

// TestRunMatrixAndViews holds the paper's evaluation shape in tier 1: the
// full policy matrix at 256² (a fraction of a second), with bands around
// the full-size figures in results_all.txt.
func TestRunMatrixAndViews(t *testing.T) {
	m, err := RunMatrix(EvalPolicies(), Options{Side: 256, Partitions: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range Benchmarks {
		for _, p := range EvalPolicies() {
			if c := m.Cells[b.Name][p]; c == nil || c.Speedup <= 0 || c.MAPE < 0 {
				t.Fatalf("%s/%s missing or degenerate: %+v", b.Name, p, c)
			}
		}
	}
	within := func(what string, got, lo, hi float64) {
		t.Helper()
		if got < lo || got > hi {
			t.Errorf("%s = %.4f, want within [%.4f, %.4f]", what, got, lo, hi)
		}
	}
	speedups := map[shmt.PolicyName]float64{}
	mapes := map[shmt.PolicyName]float64{}
	for _, p := range EvalPolicies() {
		speedups[p] = m.GeoMean(p, func(c *Cell) float64 { return c.Speedup }, false)
		mapes[p] = m.GeoMean(p, func(c *Cell) float64 { return c.MAPE }, false)
	}

	// Fig. 6: the virtual timeline is the full-size one, so the gmeans stay
	// within 7.5 % of results_all.txt (256² measured 2.10 / 1.97 / 1.17 /
	// 0.91), in the paper's order.
	fig6 := []struct {
		pol  shmt.PolicyName
		full float64
	}{{shmt.PolicyWorkStealing, 2.19}, {shmt.PolicyQAWSTS, 2.00}, {shmt.PolicyEven, 1.17}, {shmt.PolicyTPUOnly, 0.90}}
	for i, f := range fig6 {
		within("Fig. 6 "+string(f.pol)+" gmean speedup", speedups[f.pol], f.full/1.075, f.full*1.075)
		if i > 0 && speedups[f.pol] >= speedups[fig6[i-1].pol] {
			t.Errorf("Fig. 6 order: %s %.3f should trail %s %.3f",
				f.pol, speedups[f.pol], fig6[i-1].pol, speedups[fig6[i-1].pol])
		}
	}

	// Fig. 7: TPU-only is the worst quality, and QAWS-TS < work stealing <
	// even, as at 2048².
	for _, p := range EvalPolicies() {
		if p != shmt.PolicyTPUOnly && mapes[p] >= mapes[shmt.PolicyTPUOnly] {
			t.Errorf("Fig. 7: %s MAPE %.4f should undercut tpu-only %.4f", p, mapes[p], mapes[shmt.PolicyTPUOnly])
		}
	}
	if !(mapes[shmt.PolicyQAWSTS] < mapes[shmt.PolicyWorkStealing] && mapes[shmt.PolicyWorkStealing] < mapes[shmt.PolicyEven]) {
		t.Errorf("Fig. 7 order: QAWS-TS %.4f < work-stealing %.4f < even %.4f violated",
			mapes[shmt.PolicyQAWSTS], mapes[shmt.PolicyWorkStealing], mapes[shmt.PolicyEven])
	}

	// Fig. 10 (full size: energy 0.543, EDP 0.271; 256²: 0.548, 0.279) and
	// Fig. 11 (full size 1.006; 256²: 1.020).
	f10, f11, t3 := m.Fig10(), m.Fig11(), m.Table3()
	within("Fig. 10 gmean energy", f10[len(f10)-1].SHMTEnergyTotal, 0.49, 0.60)
	within("Fig. 10 gmean EDP", f10[len(f10)-1].SHMTEDP, 0.22, 0.33)
	within("Fig. 11 gmean footprint ratio", f11[len(f11)-1].Ratio, 0.98, 1.05)
	// Table 3 reads 5.4 % here against 3.36 % at full size. Exposed time is
	// what stolen HLOPs pay after the steal decision, and which HLOPs are
	// stolen follows the criticality the sampler reads from the data, which
	// at 256² is different data: the band is wide on purpose.
	within("Table 3 gmean comm overhead %", t3[len(t3)-1].OverheadPct, 2, 8)

	for _, tbl := range []*Table{m.SpeedupTable(), m.MAPETable(), m.SSIMTable(),
		Fig10Table(f10), Fig11Table(f11), Table3Table(t3)} {
		var sb strings.Builder
		tbl.Render(&sb)
		if !strings.Contains(sb.String(), "GMEAN") {
			t.Fatalf("table missing GMEAN row:\n%s", sb.String())
		}
	}
}

func TestFig2(t *testing.T) {
	rows, err := Fig2(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 { // 10 benchmarks + GMEAN
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Conventional < 1 {
			t.Fatalf("%s conventional %g < 1", r.Benchmark, r.Conventional)
		}
		if r.SHMTTheoretical <= r.Conventional {
			t.Fatalf("%s theoretical should exceed conventional", r.Benchmark)
		}
	}
	var sb strings.Builder
	Fig2Table(rows).Render(&sb)
	if !strings.Contains(sb.String(), "GMEAN") {
		t.Fatal("fig2 table missing GMEAN")
	}
}

func TestFig12SpeedupGrowsWithSize(t *testing.T) {
	rows, err := Fig12(Options{Seed: 1, Partitions: 16}, []int{64, 128, 256, 512})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].GMean <= rows[i-1].GMean {
			t.Fatalf("speedup should grow with size: %d² %g -> %d² %g (the paper's Fig. 12 trend)",
				rows[i-1].Side, rows[i-1].GMean, rows[i].Side, rows[i].GMean)
		}
	}
	var sb strings.Builder
	Fig12Table(rows).Render(&sb)
	if !strings.Contains(sb.String(), "GMEAN") {
		t.Fatal("fig12 table malformed")
	}
}

func TestStaticTables(t *testing.T) {
	var sb strings.Builder
	Table1().Render(&sb)
	if !strings.Contains(sb.String(), "reduce_hist256") || !strings.Contains(sb.String(), "GEMM") {
		t.Fatal("Table 1 incomplete")
	}
	sb.Reset()
	Table2().Render(&sb)
	if !strings.Contains(sb.String(), "SRAD") || !strings.Contains(sb.String(), "Rodinia") {
		t.Fatal("Table 2 incomplete")
	}
}

func TestElemsLabel(t *testing.T) {
	cases := map[int]string{4096: "4K", 1 << 20: "1M", 64 << 20: "64M", 100: "100"}
	for n, want := range cases {
		if got := ElemsLabel(n); got != want {
			t.Fatalf("ElemsLabel(%d) = %q want %q", n, got, want)
		}
	}
}

func TestFig1(t *testing.T) {
	rows, err := Fig1(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !(rows[2].Makespan < rows[0].Makespan && rows[1].Makespan < rows[0].Makespan) {
		t.Fatalf("Fig. 1 ordering violated: %+v", rows)
	}
	var sb strings.Builder
	Fig1Table(rows).Render(&sb)
	if !strings.Contains(sb.String(), "SHMT") {
		t.Fatal("fig1 table malformed")
	}
}

func TestTableExport(t *testing.T) {
	tbl := &Table{Title: "x", Header: []string{"a", "b"}}
	tbl.AddRow("1", "2")
	tbl.AddRow("3", "4")

	var csvOut strings.Builder
	if err := tbl.Write(&csvOut, FormatCSV); err != nil {
		t.Fatal(err)
	}
	if csvOut.String() != "a,b\n1,2\n3,4\n" {
		t.Fatalf("csv = %q", csvOut.String())
	}

	var jsonOut strings.Builder
	if err := tbl.Write(&jsonOut, FormatJSON); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonOut.String(), `"a": "3"`) {
		t.Fatalf("json = %s", jsonOut.String())
	}

	var txt strings.Builder
	if err := tbl.Write(&txt, FormatText); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "== x ==") {
		t.Fatal("text format lost the title")
	}
	if err := tbl.Write(&txt, Format("yaml")); err == nil {
		t.Fatal("unknown format should error")
	}
}

func TestStability(t *testing.T) {
	rows, err := Stability(smallOpts(), []int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if len(r.Speedups) != 2 || len(r.MAPEs) != 2 {
			t.Fatalf("%s incomplete", r.Policy)
		}
		lo, hi := r.SpeedupRange()
		if lo <= 0 || hi < lo {
			t.Fatalf("%s speedup range %g..%g", r.Policy, lo, hi)
		}
		// Seed sensitivity should be modest: the spread stays within ~25%.
		if hi/lo > 1.25 {
			t.Fatalf("%s speedup unstable across seeds: %g..%g", r.Policy, lo, hi)
		}
	}
	var sb strings.Builder
	StabilityTable(rows).Render(&sb)
	if !strings.Contains(sb.String(), "QAWS-TS") {
		t.Fatal("stability table malformed")
	}
}
