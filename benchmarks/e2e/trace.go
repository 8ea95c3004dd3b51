package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"shmt"
	"shmt/internal/cluster"
	"shmt/internal/device"
	"shmt/internal/device/cpu"
	"shmt/internal/device/gpu"
	"shmt/internal/device/tpu"
	"shmt/internal/hlop"
	"shmt/internal/kernels"
	"shmt/internal/metrics"
	"shmt/internal/serve"
	"shmt/internal/telemetry"
	"shmt/internal/vop"
)

// perLayer lists every per-layer metric with its unit. A traced run reports
// all of them on every workload; one whose layer the workload does not reach
// reads 0. BENCHMARK.json carries the same list (the smoke test compares).
var perLayer = []struct{ name, unit string }{
	{"ladder.solo_ms", "ms"},
	{"kernels.exec_ms", "ms"},
	{"kernels.share_pct", "%"},
	{"device.cpu_exec_ms", "ms"},
	{"device.gpu_exec_ms", "ms"},
	{"device.tpu_exec_ms", "ms"},
	{"hlop.partition_us", "us"},
	{"core.hlops_per_op", "count"},
	{"core.execute_ms", "ms"},
	{"core.overhead_vs_kernel_ms", "ms"},
	{"core.plan_ms", "ms"},
	{"core.stage_ms", "ms"},
	{"core.run_ms", "ms"},
	{"core.aggregate_ms", "ms"},
	{"core.plan_hit_ms", "ms"},
	{"core.plan_miss_ms", "ms"},
	{"core.plan_cache_hit_ratio", "ratio"},
	{"core.prefetch_hit_ratio", "ratio"},
	{"sched.critical_hlop_share", "ratio"},
	{"sched.tpu_hlop_share", "ratio"},
	{"sched.steals_per_op", "count"},
	{"interconnect.exposed_share", "ratio"},
	{"energy.joules_per_op", "J"},
	{"tensor.arena_hit_ratio", "ratio"},
	{"parallel.worker_busy_share", "ratio"},
	{"serve.submit_overhead_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.batch_linger_ms", "ms"},
	{"serve.batch_size_mean", "count"},
	{"serve.coschedule_gain", "x"},
	{"serve.wire_ms", "ms"},
	{"serve.transport_ms", "ms"},
	{"serve.req_mb_per_op", "MB"},
	{"serve.resp_mb_per_op", "MB"},
	{"serve.trace_coverage_pct", "%"},
	{"serve.shed_share", "ratio"},
	{"cluster.router_overhead_ms", "ms"},
	{"cluster.pick_us", "us"},
	{"cluster.scatter_ms", "ms"},
	{"cluster.scatter_share", "ratio"},
	{"cluster.scatter_fanout_mean", "count"},
	{"cluster.backend_balance", "ratio"},
	{"cluster.failover_share", "ratio"},
	{"cluster.rehash_share", "ratio"},
	{"telemetry.tracing_overhead_pct", "%"},
	{"process.gc_cycles_per_op", "count"},
	{"process.heap_peak_mb", "MB"},
	{"process.cpu_s_per_op", "s"},
	{"host.spin_ms_p50", "ms"},
	{"host.spin_spread_pct", "%"},
	{"host.slice_spread_pct", "%"},
	{"host.quiet_op_share", "ratio"},
	{"host.noisy", "count"},
	{"host.gomaxprocs", "count"},
	{"loadgen.prepare_s", "s"},
	{"loadgen.client_ms", "ms"},
	{"loadgen.throughput_ops_s", "1/s"},
	{"loadgen.latency_p50_ms", "ms"},
	{"loadgen.latency_p95_ms", "ms"},
}

// span is one call the harness made into a layer.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0: none
	Name    string  `json:"name"`
	Request string  `json:"request"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer holds the spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(name, req string, parent int, start time.Time, dur time.Duration) int {
	s := float64(start.Sub(t.t0)) / float64(time.Microsecond)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Request: req,
		StartUS: s, EndUS: s + float64(dur)/float64(time.Microsecond)})
	return id
}

// extend stretches a group span to cover its children.
func (t *tracer) extend(id int, end time.Time) {
	t.mu.Lock()
	t.spans[id-1].EndUS = float64(end.Sub(t.t0)) / float64(time.Microsecond)
	t.mu.Unlock()
}

func (t *tracer) write(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// parseTrace cuts the trace block out of a /v1/execute reply without
// decoding the output tensor in front of it: the block is the last key.
func parseTrace(body []byte) (wireStages, bool) {
	i := bytes.LastIndex(body, []byte(`"trace":{`))
	if i < 0 {
		return wireStages{}, false
	}
	var tr wireTrace
	// A Decoder reads one value and leaves what follows it alone.
	if err := json.NewDecoder(bytes.NewReader(body[i+len(`"trace":`):])).Decode(&tr); err != nil {
		return wireStages{}, false
	}
	return tr.Stages, true
}

// counterSum adds up every series of snap whose name starts with prefix.
func counterSum(snap telemetry.Snapshot, prefix string) float64 {
	var sum float64
	for k, v := range snap {
		if k == prefix || strings.HasPrefix(k, prefix+"{") {
			sum += v
		}
	}
	return sum
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// memWriter is an http.ResponseWriter that counts and drops the body: the
// in-memory rung of the ladder reaches the handler without a socket.
type memWriter struct {
	hdr    http.Header
	status int
	n      int
}

func (w *memWriter) Header() http.Header         { return w.hdr }
func (w *memWriter) WriteHeader(code int)        { w.status = code }
func (w *memWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// rungs is one request's ladder: the median solo time of each entry point,
// in ms, and what its in-process report says.
type rungs struct {
	ms      map[string]float64
	hlops   float64
	crit    float64
	tpu     float64
	exposed float64
	xfer    float64
	joules  float64
}

// ladder times, for every distinct request, successively outer public entry
// points solo: kernel → device → partition → session → batcher → handler in
// memory → loopback POST → POST through the router. A layer's self time is
// its rung minus the rung inside it.
func (b *bench) ladder(d *deployment, tr *tracer) ([]rungs, error) {
	calls := b.def.ladderCalls
	if b.p.smoke {
		calls = 1
	}
	devs := []device.Device{cpu.New(1), gpu.New(gpu.Config{}), tpu.New(tpu.Config{})}
	sess := d.sessions[0]
	cold, err := shmt.NewSession(shmt.Config{Telemetry: shmt.Telemetry{Enabled: true}})
	if err != nil {
		return nil, err
	}
	defer cold.Close()
	var batcher *serve.Batcher
	var c *client
	if d.def.shape != shapeLib {
		batcher = serve.NewBatcher(sess, serve.Config{Tracing: true, Spans: sess.TelemetryRecorder()})
		defer batcher.Close(context.Background())
		c = newClient(d, 0)
		defer c.close()
	}
	backendOf := map[string]string{}
	for _, base := range d.backends {
		backendOf[strings.TrimPrefix(base, "http://")] = base
	}

	out := make([]rungs, len(b.reqs))
	for i, r := range b.reqs {
		rg := rungs{ms: map[string]float64{}}
		t0 := time.Now()
		group := tr.add("ladder", r.name, 0, t0, 0)
		// rung times calls solo calls of fn. The first failure is kept in
		// rerr and turns the remaining rungs of this request into no-ops.
		var rerr error
		rung := func(name string, fn func() error) {
			xs := make([]float64, calls)
			for k := range xs {
				if rerr != nil {
					return
				}
				s := time.Now()
				if err := fn(); err != nil {
					rerr = fmt.Errorf("ladder %s %s: %w", name, r.name, err)
					return
				}
				dur := time.Since(s)
				tr.add(name, r.name, group, s, dur)
				xs[k] = ms(dur)
			}
			rg.ms[name] = median(xs)
		}

		rung("kernels.ExecInto", func() error {
			_, err := kernels.ExecInto(r.op, r.inputs, nil, r.attrs, kernels.Exact{})
			return err
		})
		for _, dev := range devs {
			if !dev.Supports(r.op) {
				continue
			}
			rung("Device.ExecuteInto/"+dev.Name(), func() error {
				_, err := dev.ExecuteInto(r.op, r.inputs, nil, r.attrs)
				return err
			})
		}
		v, err := vop.New(r.op, r.inputs...)
		if err != nil {
			return nil, err
		}
		v.Attrs = r.attrs
		rung("hlop.Partition", func() error {
			_, err := hlop.Partition(v, hlop.Spec{})
			return err
		})

		res, err := cold.ExecuteBatch(r.batch())
		if err != nil {
			return nil, err
		}
		rg.ms["plan_miss"] = 1e3 * res.StageWall.Plan
		var plans []float64
		rung("Session.ExecuteBatch", func() error {
			res, err = sess.ExecuteBatch(r.batch())
			if err == nil {
				plans = append(plans, 1e3*res.StageWall.Plan)
			}
			return err
		})
		if rerr != nil {
			return nil, rerr
		}
		rg.ms["plan_hit"] = median(plans)
		rep := res.Reports[0]
		rg.hlops = float64(rep.HLOPs)
		rg.crit = float64(rep.CriticalHLOPs)
		rg.tpu = float64(rep.DeviceHLOPs["tpu"])
		rg.exposed, rg.xfer = res.Comm.ExposedTime, res.Comm.TransferTime
		rg.joules = float64(res.Energy.Total())

		if d.def.shape != shapeLib {
			rung("Batcher.Submit", func() error {
				_, err := batcher.Submit(context.Background(), shmt.BatchRequest{
					Op: r.op, Inputs: r.inputs, Attrs: r.attrs, Tenant: c.tenant})
				return err
			})
			h := d.servers[0].Handler()
			rung("Handler.ServeHTTP", func() error {
				req, err := http.NewRequest(http.MethodPost, "/v1/execute", bytes.NewReader(r.body))
				if err != nil {
					return err
				}
				req.Header.Set(serve.TenantHeader, c.tenant)
				w := &memWriter{hdr: http.Header{}}
				h.ServeHTTP(w, req)
				if w.status != http.StatusOK && w.status != 0 {
					return fmt.Errorf("http %d", w.status)
				}
				return nil
			})
			// The direct POST goes to the backend the router sends this
			// request to, so the two outermost rungs differ by the router alone.
			direct := d.backends[0]
			if d.router != nil {
				rp, err := c.post(d.front, r.body, false)
				if err != nil {
					return nil, err
				}
				if base, ok := backendOf[rp.backend]; ok {
					direct = base
				}
			}
			post := func(base string) func() error {
				return func() error {
					rp, err := c.post(base, r.body, false)
					if err == nil && rp.status != http.StatusOK {
						err = fmt.Errorf("http %d", rp.status)
					}
					return err
				}
			}
			rung("client.POST", post(direct))
			if d.router != nil {
				key := cluster.Key{Tenant: c.tenant, Op: r.op.String(), Rows: r.rows, Cols: r.cols}
				rung("Pool.Pick", func() error { d.router.Pool().Pick(key); return nil })
				rung("client.POST/router", post(d.front))
			}
		}
		if rerr != nil {
			return nil, rerr
		}
		tr.extend(group, time.Now())
		out[i] = rg
	}
	return out, nil
}

// runTraced measures the per-layer metrics. It first runs a short untraced
// reference (the deployment as runTimed measures it), then rebuilds the
// deployment the way shmtserved ships — session telemetry, request tracing
// and the span recorder on — and runs one traced loop and the ladder.
func (b *bench) runTraced() (*result, error) {
	b.begin()
	m := map[string]float64{}
	tr := &tracer{t0: time.Now()}
	part := b.p.seconds * 0.2 // of the measured time, for each of the two loops

	refWS, err := b.reference(m, part)
	if err != nil {
		return nil, err
	}
	d, clients, _, err := b.setUp(true)
	if err != nil {
		return nil, err
	}
	tracedWS := b.tracedLoop(m, d, clients, tr, part)
	m["telemetry.tracing_overhead_pct"] = 100 * (ratio(tracedWS.quietLatency, refWS.quietLatency) - 1)
	rgs, err := b.ladder(d, tr)
	if err != nil {
		return nil, err
	}
	if err := b.tearDown(d, clients); err != nil {
		return nil, err
	}
	solo := b.ladderMetrics(m, rgs)
	m["serve.coschedule_gain"] = refWS.throughput * solo / 1e3

	if b.p.traceOut != "" {
		if err := tr.write(b.p.traceOut, b.def.name); err != nil {
			return nil, err
		}
		logf("   wrote %d spans to %s", len(tr.spans), b.p.traceOut)
	}
	res := &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, pl := range perLayer {
		res.Metrics[pl.name] = metric{m[pl.name], pl.unit}
	}
	for name := range m {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("metric %s is not in the per-layer list", name)
		}
	}
	report(res)
	return res, nil
}

// reference runs the untraced loop of a traced run and fills in what is read
// off it: process, host and load-generator figures.
func (b *bench) reference(m map[string]float64, part float64) (wallStats, error) {
	d, clients, _, err := b.setUp(false)
	if err != nil {
		return wallStats{}, err
	}
	ref, ws, host := b.measuredLoop(d, clients, part, nil)
	b.count("untraced", ref)
	if err := b.tearDown(d, clients); err != nil {
		return wallStats{}, err
	}
	b.wallReport(ws, host)
	m["process.gc_cycles_per_op"] = ref.gcCycles
	m["process.heap_peak_mb"] = ref.heapPeakMB
	m["process.cpu_s_per_op"] = ref.cpuS
	m["loadgen.client_ms"] = ref.clientMS
	m["loadgen.prepare_s"] = b.prepareS
	m["loadgen.throughput_ops_s"] = ws.throughput
	m["loadgen.latency_p50_ms"], m["loadgen.latency_p95_ms"] = ws.p50, ws.p95
	m["serve.req_mb_per_op"] = ref.reqMB
	m["serve.resp_mb_per_op"] = ref.respMB
	m["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	m["host.spin_ms_p50"], m["host.spin_spread_pct"] = host.spinP50, host.spinSpreadPct
	m["host.slice_spread_pct"], m["host.quiet_op_share"] = host.sliceSpreadPct, host.quietOpShare
	if host.noisy {
		m["host.noisy"] = 1
	}
	return ws, nil
}

// tracedLoop runs one loop on the traced deployment with every reply kept,
// and fills in what the replies, the sessions and the program's counters say.
func (b *bench) tracedLoop(m map[string]float64, d *deployment, clients []*client, tr *tracer, part float64) wallStats {
	planStats := func() (hits, misses float64) {
		for _, s := range d.sessions {
			st := s.PlanCacheStats()
			hits += float64(st.Hits)
			misses += float64(st.Misses)
		}
		return hits, misses
	}
	var samples []opSample
	hits0, misses0 := planStats()
	snap0 := telemetry.Default.Snapshot()
	traced, ws, _ := b.measuredLoop(d, clients, part,
		func(s opSample) {
			tr.add("client.do", b.className(s.class), 0, s.start, s.rp.latency)
			// Keep the stage times only: the body belongs to the client's
			// buffer and a BatchResult pins its output tensor.
			if s.rp.batch != nil {
				sw := s.rp.batch.StageWall
				s.stages = &wireStages{Plan: sw.Plan, Transfer: sw.Transfer, Execute: sw.Execute, Aggregate: sw.Aggregate}
			} else if st, ok := parseTrace(s.rp.body); ok {
				s.stages = &st
			}
			s.rp.body, s.rp.batch = nil, nil
			samples = append(samples, s)
		})
	b.count("traced", traced)
	snap := telemetry.Default.Snapshot().Delta(snap0)
	hits1, misses1 := planStats()
	ops := float64(traced.ok())

	hits, misses := hits1-hits0, misses1-misses0
	m["core.plan_cache_hit_ratio"] = ratio(hits, hits+misses)
	m["core.prefetch_hit_ratio"] = ratio(counterSum(snap, "shmt_prefetch_hits_total"), counterSum(snap, "shmt_prefetch_issued_total"))
	ah, am := counterSum(snap, "shmt_arena_hits_total"), counterSum(snap, "shmt_arena_misses_total")
	m["tensor.arena_hit_ratio"] = ratio(ah, ah+am)
	m["sched.steals_per_op"] = ratio(counterSum(snap, "shmt_steals_total"), ops)
	m["parallel.worker_busy_share"] = ratio(counterSum(snap, "shmt_worker_busy_nanoseconds_total"),
		traced.wall*1e9*float64(runtime.GOMAXPROCS(0)))
	m["cluster.failover_share"] = ratio(counterSum(snap, "shmt_router_failovers_total"), ops)
	m["cluster.rehash_share"] = ratio(counterSum(snap, "shmt_router_rehash_total"), ops)
	m["serve.shed_share"] = ratio(float64(traced.shed), float64(traced.attempted))

	var plan, stage, run, agg, qwait, linger, cover, bsize, scatMS, scatFan []float64
	perBackend := map[string]float64{}
	served := d.def.shape != shapeLib
	for _, s := range samples {
		if st := s.stages; st != nil {
			plan, stage = append(plan, 1e3*st.Plan), append(stage, 1e3*st.Transfer)
			run, agg = append(run, 1e3*st.Execute), append(agg, 1e3*st.Aggregate)
			if served {
				qwait = append(qwait, 1e3*st.QueueWait)
				linger = append(linger, 1e3*st.BatchLinger)
				cover = append(cover, 100*st.sum()/s.rp.latency.Seconds())
			}
		}
		if s.rp.batchSize > 0 {
			bsize = append(bsize, float64(s.rp.batchSize))
		}
		if s.rp.scatter > 0 {
			scatMS = append(scatMS, ms(s.rp.latency))
			scatFan = append(scatFan, float64(s.rp.scatter))
		}
		if s.rp.backend != "" {
			perBackend[s.rp.backend]++
		}
	}
	m["core.plan_ms"], m["core.stage_ms"] = metrics.Mean(plan), metrics.Mean(stage)
	m["core.run_ms"], m["core.aggregate_ms"] = metrics.Mean(run), metrics.Mean(agg)
	m["serve.queue_wait_ms"], m["serve.batch_linger_ms"] = median(qwait), median(linger)
	m["serve.trace_coverage_pct"] = metrics.Mean(cover)
	m["serve.batch_size_mean"] = metrics.Mean(bsize)
	m["cluster.scatter_ms"] = metrics.Mean(scatMS)
	m["cluster.scatter_fanout_mean"] = metrics.Mean(scatFan)
	m["cluster.scatter_share"] = ratio(float64(len(scatMS)), ops)
	var most, total float64
	for _, n := range perBackend {
		total += n
		most = math.Max(most, n)
	}
	if total > 0 {
		m["cluster.backend_balance"] = most / (total / float64(len(d.backends)))
	}
	return ws
}

// ladderMetrics fills in the figures read off the ladder and returns the
// outermost rung, the workload's solo latency. A figure is the mix-weighted
// mean over the distinct requests of the per-request medians.
func (b *bench) ladderMetrics(m map[string]float64, rgs []rungs) (solo float64) {
	var wsum float64
	for _, r := range b.reqs {
		wsum += float64(r.weight)
	}
	w := func(f func(rungs) float64) float64 {
		var sum float64
		for i, rg := range rgs {
			sum += float64(b.reqs[i].weight) * f(rg)
		}
		return sum / wsum
	}
	rung := func(name string) float64 { return w(func(rg rungs) float64 { return rg.ms[name] }) }
	names := make([]string, 0, len(rgs[0].ms))
	for n := range rgs[0].ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		logf("   rung %-28s %10.4f ms", n, rung(n))
	}

	kernel, execute := rung("kernels.ExecInto"), rung("Session.ExecuteBatch")
	submit, handler := rung("Batcher.Submit"), rung("Handler.ServeHTTP")
	post, routed := rung("client.POST"), rung("client.POST/router")
	solo = execute
	if b.def.shape != shapeLib {
		solo = post
		m["serve.submit_overhead_ms"] = submit - execute
		m["serve.wire_ms"] = handler - submit
		m["serve.transport_ms"] = post - handler
	}
	if b.def.shape == shapeCluster {
		solo = routed
		m["cluster.router_overhead_ms"] = routed - post
		m["cluster.pick_us"] = 1e3 * rung("Pool.Pick")
	}
	m["ladder.solo_ms"] = solo
	m["kernels.exec_ms"] = kernel
	m["kernels.share_pct"] = 100 * ratio(kernel, solo)
	m["device.cpu_exec_ms"] = rung("Device.ExecuteInto/cpu")
	m["device.gpu_exec_ms"] = rung("Device.ExecuteInto/gpu")
	m["device.tpu_exec_ms"] = rung("Device.ExecuteInto/tpu")
	m["hlop.partition_us"] = 1e3 * rung("hlop.Partition")
	m["core.execute_ms"] = execute
	m["core.overhead_vs_kernel_ms"] = execute - kernel
	m["core.plan_hit_ms"], m["core.plan_miss_ms"] = rung("plan_hit"), rung("plan_miss")
	hl := w(func(rg rungs) float64 { return rg.hlops })
	m["core.hlops_per_op"] = hl
	m["sched.critical_hlop_share"] = ratio(w(func(rg rungs) float64 { return rg.crit }), hl)
	m["sched.tpu_hlop_share"] = ratio(w(func(rg rungs) float64 { return rg.tpu }), hl)
	m["interconnect.exposed_share"] = ratio(w(func(rg rungs) float64 { return rg.exposed }), w(func(rg rungs) float64 { return rg.xfer }))
	m["energy.joules_per_op"] = w(func(rg rungs) float64 { return rg.joules })
	return solo
}
