// Command shmtbench regenerates the paper's evaluation tables and figures
// (§5) from the SHMT library.
//
// Usage:
//
//	shmtbench -exp all                 # every experiment
//	shmtbench -exp fig6                # one experiment (ids: shmtbench -h)
//	shmtbench -exp fig9,ablation       # several, in the order given
//	shmtbench -exp fig6 -side 1024     # smaller/faster inputs
//	shmtbench -exp fig12 -max64m       # include the paper's largest size
//
// Each experiment prints the same rows/series the paper reports; see
// EXPERIMENTS.md for the paper-vs-measured comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"shmt/internal/bench"
)

// experiments is every id -exp takes, in the order "all" runs them.
var experiments = []string{"table1", "table2", "fig1", "fig2", "fig6", "fig7", "fig8",
	"fig9", "fig10", "fig11", "fig12", "table3", "ablation", "stability"}

func main() {
	var (
		exp        = flag.String("exp", "all", "comma-separated experiment ids: all, "+strings.Join(experiments, ", "))
		side       = flag.Int("side", 2048, "input edge length (the harness virtually scales to the paper's 8192)")
		seed       = flag.Int64("seed", 1, "workload/sampling seed")
		partitions = flag.Int("partitions", 64, "HLOPs per VOP")
		max64m     = flag.Bool("max64m", false, "extend fig12 to the paper's 64M-element point (slow)")
	)
	flag.Parse()

	o := bench.Options{Side: *side, Seed: *seed, Partitions: *partitions}
	ids := strings.Split(strings.ToLower(*exp), ",")
	if len(ids) == 1 && ids[0] == "all" {
		ids = experiments
	}
	// Reject a typo before the first experiment runs, not after the matrix.
	for _, id := range ids {
		if !slices.Contains(experiments, id) {
			fatal(fmt.Errorf("unknown experiment %q", id))
		}
	}

	// fig6/7/8/10/11/table3 all derive from one policy matrix; build it once.
	var matrix *bench.Matrix
	needMatrix := false
	for _, id := range ids {
		switch id {
		case "fig6", "fig7", "fig8", "fig10", "fig11", "table3":
			needMatrix = true
		}
	}
	if needMatrix {
		start := time.Now()
		fmt.Fprintf(os.Stderr, "running policy matrix (%d policies x %d benchmarks at %dx%d)...\n",
			len(bench.EvalPolicies()), len(bench.Benchmarks), *side, *side)
		var err error
		matrix, err = bench.RunMatrix(bench.EvalPolicies(), o)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "policy matrix done in %v\n\n", time.Since(start).Round(time.Second))
	}

	for _, id := range ids {
		switch id {
		case "table1":
			emit(bench.Table1())
		case "table2":
			emit(bench.Table2())
		case "fig1":
			rows, err := bench.Fig1(o)
			if err != nil {
				fatal(err)
			}
			emit(bench.Fig1Table(rows))
		case "fig2":
			rows, err := bench.Fig2(o)
			if err != nil {
				fatal(err)
			}
			emit(bench.Fig2Table(rows))
		case "fig6":
			emit(matrix.SpeedupTable())
		case "fig7":
			emit(matrix.MAPETable())
		case "fig8":
			emit(matrix.SSIMTable())
		case "fig9":
			rows, err := bench.Fig9(o)
			if err != nil {
				fatal(err)
			}
			emit(bench.Fig9Table(rows))
			emit(bench.Fig9DetailTable(rows))
		case "fig10":
			emit(bench.Fig10Table(matrix.Fig10()))
		case "fig11":
			emit(bench.Fig11Table(matrix.Fig11()))
		case "fig12":
			sides := bench.Fig12Sides
			if *max64m {
				sides = append(append([]int{}, sides...), 8192)
			}
			rows, err := bench.Fig12(o, sides)
			if err != nil {
				fatal(err)
			}
			emit(bench.Fig12Table(rows))
		case "table3":
			emit(bench.Table3Table(matrix.Table3()))
		case "stability":
			rows, err := bench.Stability(o, nil)
			if err != nil {
				fatal(err)
			}
			emit(bench.StabilityTable(rows))
		case "ablation":
			gran, err := bench.AblationGranularity(o, nil)
			if err != nil {
				fatal(err)
			}
			emit(bench.AblationGranularityTable(gran))
			db, err := bench.AblationDoubleBuffer(o)
			if err != nil {
				fatal(err)
			}
			emit(bench.AblationDoubleBufferTable(db))
			dc, err := bench.AblationDatacenter(o)
			if err != nil {
				fatal(err)
			}
			emit(bench.AblationDatacenterTable(dc))
			pfd, err := bench.AblationPrefetch(o)
			if err != nil {
				fatal(err)
			}
			emit(bench.AblationPrefetchTable(pfd))
			dsp, err := bench.AblationDSP(o)
			if err != nil {
				fatal(err)
			}
			emit(bench.AblationDSPTable(dsp))
		}
	}

	// HeapSys never shrinks, so at exit it is the peak heap (the figure
	// benchmarks/e2e reports as process.heap_peak_mb).
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(os.Stderr, "shmtbench: peak heap %.0f MB\n", float64(ms.HeapSys)/1e6)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "shmtbench:", err)
	os.Exit(1)
}

func emit(t *bench.Table) { t.Render(os.Stdout) }
