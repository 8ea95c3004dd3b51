// Command e2e is the repository's end-to-end benchmark: four closed-loop
// workloads driven through the three deployment shapes (shmt.Session in
// process, one serve.Server on loopback, cluster.Router in front of two
// serve.Server backends), all inside this one process.
//
//	bash benchmarks/run.sh --workload serve_small --seed 1 --seconds 20 --trace 0
//
// With --trace 0 a run measures the end-to-end metrics with every kind of
// tracing off; with --trace 1 it measures the per-layer metrics instead, by
// timing calls into each layer's public entry points from outside. Either
// way the last line of standard output is one JSON object; everything a
// person reads goes to standard error. See ../README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// params are a run's settings; everything else is fixed in the workload.
type params struct {
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	// smoke is the smoke test's mode, not a flag: every third distinct
	// request, one set-up, smokeOps ops per client in the warm-up and in a
	// loop, one call per ladder rung.
	smoke bool
}

// smokeOps is how many ops a client sends in a smoke run's loops: the head of
// its cycle, so two loops send the same requests.
const smokeOps = 4

// setUps is how many times a run performs set-up; setup_s is their median.
// The last deployment is the one measured.
const setUps = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// timeIt returns how long fn took.
func timeIt(fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}

// run is one workload's run. It returns the result to print, or an error when
// the run could not be completed at all.
func run(def *workloadDef, p params) (*result, error) {
	b, err := newBench(def, p)
	if err != nil {
		return nil, err
	}
	if p.trace {
		return b.runTraced()
	}
	return b.runTimed()
}

// bench is a workload prepared for a run: the generated requests, what their
// replies are judged against, and the clients' cycles.
type bench struct {
	def      *workloadDef
	p        params
	reqs     []*request
	fresh    *freshPool
	cycles   [][]int
	prepareS float64

	attempted, failed int // of the run under way
}

// newBench is the prepare phase: harness work, not part of setup_s.
func newBench(def *workloadDef, p params) (*bench, error) {
	logf("== %s  seed=%d seconds=%g trace=%v  GOMAXPROCS=%d GOGC=%q SHMT_WORKERS=%q", def.name, p.seed, p.seconds,
		p.trace, runtime.GOMAXPROCS(0), os.Getenv("GOGC"), os.Getenv("SHMT_WORKERS"))
	b := &bench{def: def, p: p}
	prepD, err := timeIt(func() (err error) {
		if b.reqs, err = generate(def, p.seed); err != nil {
			return err
		}
		if p.smoke {
			kept := b.reqs[:0]
			for i, r := range b.reqs {
				if i%3 == 0 {
					kept = append(kept, r)
				}
			}
			b.reqs = kept
		}
		b.fresh = newFreshPool(def, p.seed)
		return prepare(b.reqs)
	})
	if err != nil {
		return nil, err
	}
	b.prepareS = prepD.Seconds()
	b.cycles = make([][]int, def.clients)
	for i := range b.cycles {
		b.cycles[i] = cycle(b.reqs, def.freshPerCycle, p.seed, i)
	}
	return b, nil
}

// begin starts a run: its counts are zero and its fresh shapes start at the
// head of the pool, so two runs of one bench send the same requests.
func (b *bench) begin() {
	b.attempted, b.failed = 0, 0
	if b.fresh != nil {
		b.fresh.next.Store(0)
	}
}

// cycleOps is the length of a client cycle.
func (b *bench) cycleOps() int { return len(b.cycles[0]) }

func (b *bench) count(phase string, st loopStats) {
	b.attempted += st.attempted
	b.failed += st.failed
	logf("   %-10s attempted=%d succeeded=%d failed=%d", phase, st.attempted, st.ok(), st.failed)
	if st.firstErr != nil {
		logf("   %-10s first failure: %v", phase, st.firstErr)
	}
}

// setUp is the set-up phase: construct the deployment, wait until every tier
// answers, send every distinct request once cold from every client (each
// tenant has its own placement key), which captures the plans and fills the
// arenas, then walk a fixed number of whole cycles, so that pools, heap size
// and connections are in their steady state when measuring begins. The
// warm-up makes set-up seconds of program work: a set-up of 0.1-0.2 s varied
// 2x from run to run. It returns how long all of that took.
func (b *bench) setUp(traced bool) (*deployment, []*client, float64, error) {
	t0 := time.Now()
	d, err := deploy(b.def, traced)
	if err != nil {
		return nil, nil, 0, err
	}
	clients := make([]*client, b.def.clients)
	for i := range clients {
		clients[i] = newClient(d, i)
	}
	cold := loopStats{}
	for _, c := range clients {
		for _, r := range b.reqs {
			rp, err := c.do(r, false)
			cold.attempted++
			if err != nil || rp.status != http.StatusOK {
				cold.failed++
				if cold.firstErr == nil {
					cold.firstErr = fmt.Errorf("%s: status %d: %v", r.name, rp.status, err)
				}
			}
		}
	}
	b.count("cold", cold)
	warm := b.def.warmCycles * b.cycleOps()
	if b.p.smoke {
		warm = smokeOps
	}
	b.count("warm-up", runLoop(d, clients, b.cycles, b.reqs, b.fresh, 0, warm, nil))
	return d, clients, time.Since(t0).Seconds(), nil
}

func (b *bench) tearDown(d *deployment, clients []*client) error {
	for _, c := range clients {
		c.close()
	}
	return d.close()
}

// runTimed measures the end-to-end metrics: tracing off everywhere.
func (b *bench) runTimed() (*result, error) {
	d, clients, setupS, err := b.setUps()
	if err != nil {
		return nil, err
	}
	res, err := b.measure(d, clients, setupS)
	if terr := b.tearDown(d, clients); err == nil {
		err = terr
	}
	return res, err
}

// setUps performs set-up setUps times, tearing down in between, and returns
// the last deployment and every set-up's duration.
func (b *bench) setUps() (d *deployment, clients []*client, setupS []float64, err error) {
	b.begin()
	n := setUps
	if b.p.smoke {
		n = 1
	}
	for i := 0; i < n; i++ {
		if d != nil {
			if err := b.tearDown(d, clients); err != nil {
				return nil, nil, nil, err
			}
		}
		var s float64
		if d, clients, s, err = b.setUp(false); err != nil {
			return nil, nil, nil, err
		}
		setupS = append(setupS, s)
	}
	return d, clients, setupS, nil
}

// measure runs the measured loop and the verification pass on a deployment
// that is set up, and builds the run's result.
func (b *bench) measure(d *deployment, clients []*client, setupS []float64) (*result, error) {
	timed, ws, host := b.measuredLoop(d, clients, b.p.seconds, nil)
	b.count("timed", timed)

	v, err := verify(d, b.reqs, b.fresh)
	if err != nil {
		return nil, err
	}
	b.attempted += v.attempted
	b.failed += v.failed
	logf("   %-10s attempted=%d succeeded=%d failed=%d", "verify", v.attempted, v.attempted-v.failed, v.failed)
	for _, n := range v.notes {
		logf("   verify: %s", n)
	}

	res := &result{
		Correct:   b.failed == 0 && len(v.notes) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics: map[string]metric{
			"latency_quiet_ms": {ws.quietLatency, "ms"},
			"alloc_mb_per_op":  {timed.allocMB, "MB"},
			"allocs_per_op":    {timed.allocs, "count"},
			"setup_s":          {median(setupS), "s"},
			"sim_speedup":      {v.simSpeedup, "x"},
			"quality_mape_pct": {v.mapePct, "%"},
		},
	}
	logf("   set-up %.3v s (median of %d); prepare %.2f s", setupS, len(setupS), b.prepareS)
	b.wallReport(ws, host)
	report(res)
	return res, nil
}

// measuredLoop runs the closed loop the wall-clock figures come from, with
// the host-noise canary before and after it: seconds long, or smokeOps ops
// per client in a smoke run.
func (b *bench) measuredLoop(d *deployment, clients []*client, seconds float64, keep func(opSample)) (loopStats, wallStats, hostStats) {
	spins := canary()
	var st loopStats
	if b.p.smoke {
		st = runLoop(d, clients, b.cycles, b.reqs, b.fresh, 0, smokeOps, keep)
	} else {
		st = runLoop(d, clients, b.cycles, b.reqs, b.fresh, time.Duration(seconds*float64(time.Second)), 0, keep)
	}
	spins = append(spins, canary()...)
	ws := analyze(st, len(b.reqs)+1)
	sort.Float64s(spins)
	host := hostStats{spinP50: quantile(spins, 0.5), sliceSpreadPct: spreadPct(ws.sliceThr), quietOpShare: ws.quietOpShare}
	host.spinSpreadPct = 100 * (quantile(spins, 0.9) - quantile(spins, 0.1)) / host.spinP50
	host.noisy = host.spinSpreadPct > noisySpinSpreadPct || host.quietOpShare < b.def.quietShareFloor
	return st, ws, host
}

// className names a sample class: a distinct request, or the fresh shapes.
func (b *bench) className(c int) string {
	if c < len(b.reqs) {
		return b.reqs[c].name
	}
	return "fresh shapes"
}

// hostStats are what a loop says about the host it ran on.
type hostStats struct {
	spinP50        float64 // ms
	spinSpreadPct  float64 // (p90-p10)/p50 of the canary before and after the loop
	sliceSpreadPct float64 // (max-min)/median of the throughput of the loop's ten time slices
	quietOpShare   float64 // wallStats.quietOpShare
	// noisy flags a run in about the worst fifth of what this host did when the
	// benchmark was defined (README, "Host"): the canary spread more than in
	// nine runs of ten, or fewer ops ran near their quiet latency than in nine
	// runs of ten of this workload. Its figures as measured are better
	// measured again.
	noisy bool
}

const noisySpinSpreadPct = 40

// wallReport prints a loop's wall-clock figures as measured and the host's,
// and flags a noisy run.
func (b *bench) wallReport(ws wallStats, h hostStats) {
	logf("   as measured: throughput %.2f 1/s, latency p50 %.3f ms, p95 %.3f ms (%d beyond p95); fewest samples of any request: %d",
		ws.throughput, ws.p50, ws.p95, ws.beyond, ws.minClassN)
	flag := ""
	if h.noisy {
		flag = "  ** noisy **"
	}
	logf("   host: spin p50 %.2f ms, spin spread (p90-p10)/p50 %.1f %%, slice throughput spread %.1f %%, quiet op share %.2f%s",
		h.spinP50, h.spinSpreadPct, h.sliceSpreadPct, h.quietOpShare, flag)
}

// report prints every metric by name and unit.
func report(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		logf("   %-34s %14.6g %s", n, m.Value, m.Unit)
	}
	logf("   correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
}

func main() {
	var p params
	var name string
	trace := 0
	flag.StringVar(&name, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (default: each in turn)")
	flag.Int64Var(&p.seed, "seed", 1, "seed of the generated inputs and the order of the mix")
	flag.Float64Var(&p.seconds, "seconds", 20, "measured time of the run, in seconds (1 to 60)")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
	flag.StringVar(&p.traceOut, "trace-out", "", "with -trace 1, write the harness's spans to this file as JSON")
	flag.Parse()
	// The fresh-shape pool covers 60 s, the longest run the driver's contract allows.
	if flag.NArg() > 0 || trace < 0 || trace > 1 || p.seconds < 1 || p.seconds > 60 {
		flag.Usage()
		os.Exit(2)
	}
	p.trace = trace == 1
	defs := workloads
	if name != "" {
		def := workloadByName(name)
		if def == nil {
			logf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
			os.Exit(2)
		}
		defs = []*workloadDef{def}
	}
	code := 0
	for _, def := range defs {
		// One workload's deployment is alive at a time.
		res, err := run(def, p)
		if err != nil {
			logf("%s: %v", def.name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			logf("%s: %v", def.name, err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		if !res.Correct {
			code = 1
		}
	}
	os.Exit(code)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
