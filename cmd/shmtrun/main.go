// Command shmtrun executes a single benchmark kernel under a chosen policy
// and prints the run's full accounting — the interactive counterpart of the
// shmtbench experiment harness.
//
// Usage:
//
//	shmtrun -bench Sobel -policy QAWS-TS
//	shmtrun -bench FFT -policy work-stealing -side 1024 -trace
//	shmtrun -bench Sobel --trace-out=run.json --report-out=report.json
//	shmtrun -bench Sobel --chaos "tpu:die=5" --chaos-seed 42
//	shmtrun -list
//
// -trace turns the session's span recorder on and ends the report with an
// ASCII Gantt of the device timelines drawn from its virtual-clock spans.
// --trace-out writes the run's telemetry spans (virtual device lanes,
// wall-clock host lanes, steal flow arrows) as Chrome trace-event JSON —
// load it in ui.perfetto.dev or chrome://tracing. --report-out writes the
// structured JSON telemetry report, the run's counters included.
//
// --chaos injects seeded reproducible faults per device
// ("device:key=value[,key=value];..."; keys: transient, failfirst, die,
// latmul, spike, spikemul, corrupt, corruptmag) and prints the degradation
// report — quarantines, reroutes, and the quality impact of work that fell
// back to a less accurate device.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"

	"shmt"
	"shmt/internal/bench"
	"shmt/internal/sched"
	"shmt/internal/telemetry"
)

func main() {
	var (
		name       = flag.String("bench", "Sobel", "benchmark name (see -list)")
		policy     = flag.String("policy", string(shmt.PolicyQAWSTS), "scheduling policy")
		side       = flag.Int("side", 2048, "input edge length")
		seed       = flag.Int64("seed", 1, "workload seed")
		partitions = flag.Int("partitions", 64, "HLOPs per VOP")
		rate       = flag.Float64("rate", bench.PaperSamplingRate, "QAWS sampling rate")
		noScale    = flag.Bool("noscale", false, "disable virtual full-size scaling")
		trace      = flag.Bool("trace", false, "end with an ASCII Gantt of the device timelines (turns the span recorder on)")
		traceOut   = flag.String("trace-out", "", "write Chrome trace-event JSON (Perfetto) to this file")
		reportOut  = flag.String("report-out", "", "write the structured JSON telemetry report to this file")
		chaosSpec  = flag.String("chaos", "", `fault-injection plan, e.g. "tpu:die=5;gpu:transient=0.2"`)
		chaosSeed  = flag.Int64("chaos-seed", 0, "fault-schedule seed (default: -seed)")
		planCache  = flag.Bool("plan-cache", false, "enable the memoized execution-plan cache (off by default: single-shot runs measure per-invocation planning)")
		list       = flag.Bool("list", false, "list benchmarks and policies, then exit")
	)
	flag.Parse()

	if *list {
		fmt.Println("benchmarks:")
		for _, b := range bench.Benchmarks {
			fmt.Printf("  %-14s %-20s VOP %s\n", b.Name, b.Category, b.Op)
		}
		fmt.Println("policies:")
		tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "  \tsource\tassignment\tsteal\tdouble-buffer")
		for _, r := range sched.Table {
			src, asg, steal := r.Policy.Parts()
			fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\t%v\n", r.Key, src, asg, steal, r.DoubleBuffer)
		}
		tw.Flush()
		fmt.Printf("default: %s. An adaptive row prices, once per plan-cache key, a lone VOP run whole\n"+
			"on its most accurate eligible device against the row's partitioned plan, and runs the cheaper;\n"+
			"a batch of several VOPs runs the partitioned plan.\n",
			shmt.DefaultPolicy)
		return
	}

	b, ok := bench.ByName(*name)
	if !ok {
		fatal(fmt.Errorf("unknown benchmark %q (see -list)", *name))
	}
	o := bench.Options{
		Side: *side, Seed: *seed, Partitions: *partitions,
		SamplingRate: *rate, NoVirtualScale: *noScale,
	}
	// The trial generates the inputs and runs the exact reference and the
	// GPU baseline on them; the run below shares the same inputs.
	trial, err := bench.NewTrial(b, o, true)
	if err != nil {
		fatal(err)
	}

	cfg := trial.Options.SessionConfig(b, shmt.PolicyName(*policy))
	cfg.PlanCache.Disabled = !*planCache
	if *chaosSpec != "" {
		plans, err := shmt.ParseChaosSpec(*chaosSpec, *chaosSeed)
		if err != nil {
			fatal(err)
		}
		cfg.Chaos = plans
	}
	if *trace || *traceOut != "" || *reportOut != "" {
		cfg.Telemetry.Enabled = true
	}
	s, err := shmt.NewSession(cfg)
	if err != nil {
		fatal(err)
	}
	defer s.Close()

	rep, err := s.Execute(b.Op, trial.Inputs, b.Attrs)
	if err != nil {
		fatal(err)
	}
	c, err := trial.Score(rep, nil)
	if err != nil {
		fatal(err)
	}
	base := trial.Baseline
	if *traceOut != "" {
		if err := writeFile(*traceOut, s.WriteTrace); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote Perfetto trace to %s (open in ui.perfetto.dev)\n", *traceOut)
	}
	if *reportOut != "" {
		if err := writeFile(*reportOut, s.TelemetryReport().WriteJSON); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote telemetry report to %s\n", *reportOut)
	}

	n := trial.Options.Side
	fmt.Printf("%s (%s) on %dx%d, policy %s\n", b.Name, b.Op, n, n, s.PolicyName())
	fmt.Printf("  virtual latency:   %.3f ms (GPU baseline %.3f ms -> %.2fx speedup)\n",
		rep.Makespan*1e3, base.Makespan*1e3, c.Speedup)
	fmt.Printf("  scheduling:        %d HLOPs, %.3f ms overhead\n", rep.HLOPs, rep.SchedOverhead*1e3)
	if row, _ := sched.Lookup(s.PolicyName()); row.Policy.Adaptive {
		// The run is the session's first, so it was priced. Only the
		// partitioned branch samples criticality, and sampling always costs.
		branch := "partitioned, modelled cheaper than one device"
		if rep.SchedOverhead == 0 {
			branch = "one device, modelled cheaper than partitioned"
		}
		fmt.Printf("  pricing:           %s\n", branch)
	}
	names := make([]string, 0, len(rep.Busy))
	for n := range rep.Busy {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  busy %-4s          %.3f ms\n", n+":", rep.Busy[n]*1e3)
	}
	fmt.Printf("  quality:           MAPE %.3f%%", 100*c.MAPE)
	if b.ImageLike {
		fmt.Printf(", SSIM %.4f", c.SSIM)
	}
	fmt.Println()
	fmt.Printf("  energy:            %.3f J (baseline %.3f J, %.1f%% saved), EDP %.3g\n",
		rep.Energy.Total(), base.Energy.Total(),
		100*(1-rep.Energy.Total()/base.Energy.Total()),
		rep.Energy.Total()*rep.Makespan)
	fmt.Printf("  data movement:     %.1f MiB, %.3f ms raw, %.3f ms exposed\n",
		float64(rep.Comm.Bytes)/(1<<20), rep.Comm.TransferTime*1e3, rep.Comm.ExposedTime*1e3)
	fmt.Printf("  peak footprint:    %.1f MiB (baseline %.1f MiB)\n",
		float64(rep.PeakBytes)/(1<<20), float64(base.PeakBytes)/(1<<20))
	if d := rep.Degraded; d != nil {
		fmt.Printf("  degraded:          %d failed dispatches (%.3f ms charged, %.3f ms backoff)\n",
			d.FailedDispatches, d.FailedDispatchSeconds*1e3, d.BackoffSeconds*1e3)
		for _, q := range d.Quarantines {
			fmt.Printf("    quarantined %s at %.3f ms for %.3f ms (%d HLOPs redistributed)\n",
				q.Device, q.At*1e3, q.Cooldown*1e3, q.Rerouted)
		}
		fmt.Printf("    rerouted %d HLOPs (%d elems); %d downgraded to lower accuracy (%d elems)\n",
			d.Rerouted, d.ReroutedElems, d.Downgraded, d.DowngradedElems)
		if d.ProbeSuccesses+d.ProbeFailures > 0 {
			fmt.Printf("    re-admission probes: %d ok, %d failed\n", d.ProbeSuccesses, d.ProbeFailures)
		}
		if quar := s.QuarantinedDevices(); len(quar) > 0 {
			fmt.Printf("    still quarantined: %v\n", quar)
		}
	}
	if *trace {
		fmt.Println()
		fmt.Print(telemetry.Gantt(s.TelemetryRecorder().Spans(), 64))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "shmtrun:", err)
	os.Exit(1)
}

// writeFile streams render into path.
func writeFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
