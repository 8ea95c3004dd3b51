package bench

import (
	"fmt"
	"io"
	"strings"

	"shmt"
)

// Table is a simple fixed-width text table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends one row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == 0 {
				b.WriteString(fmt.Sprintf("%-*s", widths[i], c))
			} else {
				b.WriteString(fmt.Sprintf("%*s", widths[i], c))
			}
		}
		fmt.Fprintln(w, b.String())
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string  { return fmt.Sprintf("%.4f", v) }
func pct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }

// SpeedupTable renders the matrix as Fig. 6 (speedup over GPU baseline).
func (m *Matrix) SpeedupTable() *Table {
	return m.view("Fig. 6 — Speedup over GPU baseline (higher is better)",
		func(c *Cell) float64 { return c.Speedup }, f2, false)
}

// MAPETable renders the matrix as Fig. 7 (MAPE, lower is better).
func (m *Matrix) MAPETable() *Table {
	return m.view("Fig. 7 — MAPE vs exact reference (lower is better)",
		func(c *Cell) float64 { return c.MAPE }, pct, false)
}

// SSIMTable renders the matrix as Fig. 8 (SSIM over image benchmarks).
func (m *Matrix) SSIMTable() *Table {
	return m.view("Fig. 8 — SSIM vs exact reference, image benchmarks (higher is better)",
		func(c *Cell) float64 { return c.SSIM }, f4, true)
}

// view renders one scalar of every cell, a column per policy, with its
// GMEAN row.
func (m *Matrix) view(title string, f func(*Cell) float64, format func(float64) string, imageOnly bool) *Table {
	t := &Table{Title: title, Header: []string{"Benchmark"}}
	for _, p := range m.Policies {
		t.Header = append(t.Header, string(p))
	}
	for _, b := range Benchmarks {
		if imageOnly && !b.ImageLike {
			continue
		}
		row := []string{b.Name}
		for _, p := range m.Policies {
			row = append(row, format(f(m.Cells[b.Name][p])))
		}
		t.AddRow(row...)
	}
	gm := []string{"GMEAN"}
	for _, p := range m.Policies {
		gm = append(gm, format(m.GeoMean(p, f, imageOnly)))
	}
	t.AddRow(gm...)
	return t
}

// Fig2Table renders the Fig. 2 potential study.
func Fig2Table(rows []Fig2Row) *Table {
	t := &Table{
		Title:  "Fig. 2 — Potential speedup over GPU baseline",
		Header: []string{"Benchmark", "edge TPU", "conventional (best device)", "SHMT theoretical"},
	}
	for _, r := range rows {
		t.AddRow(r.Benchmark, f2(r.TPUSpeedup), f2(r.Conventional), f2(r.SHMTTheoretical))
	}
	return t
}

// Fig9Table renders the sampling-rate sweep.
func Fig9Table(rows []Fig9Row) *Table {
	t := &Table{
		Title:  "Fig. 9 — QAWS-TS vs sampling rate (GMEAN speedup, GMEAN MAPE)",
		Header: []string{"rate", "speedup", "MAPE"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("2^%d", r.RateLog2), f2(r.Speedup), pct(r.MAPE))
	}
	return t
}

// Fig9DetailTable renders the per-benchmark MAPE sweep (the paper's
// Fig. 9(a) bars).
func Fig9DetailTable(rows []Fig9Row) *Table {
	t := &Table{
		Title:  "Fig. 9(a) — per-benchmark MAPE vs QAWS-TS sampling rate",
		Header: []string{"rate"},
	}
	for _, b := range Benchmarks {
		t.Header = append(t.Header, b.Name)
	}
	for _, r := range rows {
		row := []string{fmt.Sprintf("2^%d", r.RateLog2)}
		for _, b := range Benchmarks {
			row = append(row, pct(r.PerBenchMAPE[b.Name]))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig10Table renders the energy comparison.
func Fig10Table(rows []Fig10Row) *Table {
	t := &Table{
		Title: "Fig. 10 — Energy and EDP, normalized to GPU baseline (lower is better)",
		Header: []string{"Benchmark", "base active", "base idle", "SHMT active",
			"SHMT idle", "SHMT energy", "SHMT EDP", "saved"},
	}
	for _, r := range rows {
		t.AddRow(r.Benchmark, f3(r.BaselineActive), f3(r.BaselineIdle),
			f3(r.SHMTActive), f3(r.SHMTIdle), f3(r.SHMTEnergyTotal), f3(r.SHMTEDP),
			fmt.Sprintf("%.1f%%", r.SavedPct))
	}
	return t
}

// Fig11Table renders the footprint comparison.
func Fig11Table(rows []Fig11Row) *Table {
	t := &Table{
		Title:  "Fig. 11 — Memory footprint ratio over GPU baseline (lower is better)",
		Header: []string{"Benchmark", "ratio"},
	}
	for _, r := range rows {
		t.AddRow(r.Benchmark, f3(r.Ratio))
	}
	return t
}

// Table3Table renders the communication overhead table.
func Table3Table(rows []Table3Row) *Table {
	t := &Table{
		Title:  "Table 3 — Communication overhead under QAWS-TS",
		Header: []string{"Benchmark", "overhead"},
	}
	for _, r := range rows {
		t.AddRow(r.Benchmark, fmt.Sprintf("%.2f%%", r.OverheadPct))
	}
	return t
}

// Fig12Table renders the problem-size sweep.
func Fig12Table(rows []Fig12Row) *Table {
	t := &Table{
		Title:  "Fig. 12 — QAWS-TS speedup vs problem size (real platform, no virtual scaling)",
		Header: []string{"elements"},
	}
	for _, b := range Benchmarks {
		t.Header = append(t.Header, b.Name)
	}
	t.Header = append(t.Header, "GMEAN")
	for _, r := range rows {
		row := []string{ElemsLabel(r.Elems)}
		for _, b := range Benchmarks {
			row = append(row, f2(r.PerBench[b.Name]))
		}
		row = append(row, f2(r.GMean))
		t.AddRow(row...)
	}
	return t
}

// Table1 renders the VOP list (Table 1).
func Table1() *Table {
	t := &Table{
		Title:  "Table 1 — VOPs by parallelization model",
		Header: []string{"VOP", "model"},
	}
	for _, op := range allOps() {
		t.AddRow(op.String(), op.Model().String())
	}
	return t
}

func allOps() []shmt.Op {
	return []shmt.Op{
		shmt.OpAdd, shmt.OpSub, shmt.OpMultiply, shmt.OpLog, shmt.OpSqrt,
		shmt.OpRsqrt, shmt.OpTanh, shmt.OpRelu, shmt.OpMax, shmt.OpMin,
		shmt.OpReduceSum, shmt.OpReduceAverage, shmt.OpReduceMax,
		shmt.OpReduceMin, shmt.OpReduceHist256, shmt.OpParabolicPDE,
		shmt.OpConv, shmt.OpGEMM, shmt.OpDCT8x8, shmt.OpFDWT97, shmt.OpFFT,
		shmt.OpLaplacian, shmt.OpMeanFilter, shmt.OpSobel, shmt.OpSRAD,
		shmt.OpStencil,
	}
}

// Table2 renders the benchmark list (Table 2).
func Table2() *Table {
	t := &Table{
		Title:  "Table 2 — Benchmarks",
		Header: []string{"Benchmark", "Category", "Baseline Implementation", "VOP"},
	}
	for _, b := range Benchmarks {
		t.AddRow(b.Name, b.Category, b.Baseline, b.Op.String())
	}
	return t
}
