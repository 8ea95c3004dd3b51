// Command shmtbench regenerates the paper's evaluation tables and figures
// (§5) from the SHMT library.
//
// Usage:
//
//	shmtbench -exp all                 # every experiment
//	shmtbench -exp fig6                # one experiment: fig2 fig6 fig7 fig8
//	                                   # fig9 fig10 fig11 fig12 table1 table2 table3
//	shmtbench -exp fig6 -side 1024     # smaller/faster inputs
//	shmtbench -exp fig12 -max64m       # include the paper's largest size
//
// Each experiment prints the same rows/series the paper reports; see
// EXPERIMENTS.md for the paper-vs-measured comparison.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"shmt/internal/bench"
	"shmt/internal/telemetry"
)

func main() {
	var (
		exp          = flag.String("exp", "all", "experiment id: all, fig1, fig2, fig6, fig7, fig8, fig9, fig10, fig11, fig12, table1, table2, table3, ablation, stability")
		side         = flag.Int("side", 2048, "input edge length (the harness virtually scales to the paper's 8192)")
		seed         = flag.Int64("seed", 1, "workload/sampling seed")
		partitions   = flag.Int("partitions", 64, "HLOPs per VOP")
		max64m       = flag.Bool("max64m", false, "extend fig12 to the paper's 64M-element point (slow)")
		format       = flag.String("format", "text", "output format: text, csv, json")
		telemetryOut = flag.String("telemetry-out", "", "write per-experiment telemetry counter snapshots (JSON) to this file")
		metricsAddr  = flag.String("metrics-addr", "", "serve Prometheus metrics on this address while experiments run")
	)
	flag.Parse()
	var telSnaps map[string]telemetry.Snapshot
	if *telemetryOut != "" || *metricsAddr != "" {
		telemetry.Enable()
		telSnaps = map[string]telemetry.Snapshot{}
	}
	if *metricsAddr != "" {
		srv, err := telemetry.Serve(*metricsAddr)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "serving Prometheus metrics on http://%s/metrics\n", srv.Addr())
	}
	emit = func(t *bench.Table) {
		if err := t.Write(os.Stdout, bench.Format(*format)); err != nil {
			fatal(err)
		}
	}

	o := bench.Options{Side: *side, Seed: *seed, Partitions: *partitions}
	ids := strings.Split(strings.ToLower(*exp), ",")
	if len(ids) == 1 && ids[0] == "all" {
		ids = []string{"table1", "table2", "fig1", "fig2", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "table3", "ablation", "stability"}
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
		base := telemetryBase(telSnaps)
		var err error
		matrix, err = bench.RunMatrix(bench.EvalPolicies(), o)
		if err != nil {
			fatal(err)
		}
		telemetrySnap(telSnaps, "policy-matrix", base)
		fmt.Fprintf(os.Stderr, "policy matrix done in %v\n\n", time.Since(start).Round(time.Second))
	}

	for _, id := range ids {
		base := telemetryBase(telSnaps)
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
		default:
			fatal(fmt.Errorf("unknown experiment %q", id))
		}
		telemetrySnap(telSnaps, id, base)
	}

	if *telemetryOut != "" {
		f, err := os.Create(*telemetryOut)
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", " ")
		if err := enc.Encode(telSnaps); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote per-experiment telemetry snapshots to %s\n", *telemetryOut)
	}
}

// telemetryBase snapshots the registry before an experiment (nil when
// telemetry collection is off).
func telemetryBase(snaps map[string]telemetry.Snapshot) telemetry.Snapshot {
	if snaps == nil {
		return nil
	}
	return telemetry.Default.Snapshot()
}

// telemetrySnap stores the counter delta one experiment produced.
func telemetrySnap(snaps map[string]telemetry.Snapshot, id string, base telemetry.Snapshot) {
	if snaps == nil {
		return
	}
	snaps[id] = telemetry.Default.Snapshot().Delta(base)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "shmtbench:", err)
	os.Exit(1)
}

// emit is set in main once the -format flag is parsed.
var emit = func(t *bench.Table) { t.Render(os.Stdout) }
