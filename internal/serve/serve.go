// Package serve is the concurrent serving layer in front of a shmt.Session:
// tenant-aware admission queues plus a dynamic micro-batcher that coalesces
// concurrent VOP requests into ExecuteBatch rounds, and an HTTP/JSON
// front-end (http.go) that speaks it.
//
// Request flow: Submit enqueues into the request's tenant queue (overflow is
// shed immediately — the HTTP layer answers 429 + Retry-After rather than
// letting any tenant's queue grow without bound). A single dispatcher
// goroutine gathers a round: it drains the tenant queues by deficit-weighted
// round-robin — each tenant earns quantum proportional to its configured
// Weight, so a bursting tenant cannot starve the others — until MaxBatch
// requests are in hand or the queues are empty. It is work-conserving: with
// the queues empty the round is flushed at once, unless a request is on its
// way. The front-end announces a request (Batcher.Announce) the moment its
// handler is entered — before the body is read, because reading and decoding
// the body is most of the time a request spends arriving — and the dispatcher
// waits for company only while an announced request has not yet been queued
// or released, and never longer than MaxLinger. So a lone request never
// waits, two overlapping requests share a round after waiting only for the
// slower decode, and a backlog that built up behind a running round coalesces
// up to MaxBatch. With a single tenant (or no Tenants config) the deficit
// rotation degenerates to exactly a shared FIFO: one queue, popped in arrival
// order. Each round becomes one Session.ExecuteBatch call, so the engine
// co-schedules the requests' HLOPs over shared device queues — the
// oversubscription §5.6 of the paper credits for hiding data-exchange
// latency. Requests whose deadline expired while queued are dropped at
// flush time instead of wasting a batch slot.
//
// A single dispatcher is deliberate: the engine serializes runs anyway (see
// shmt.Session), so more dispatchers would only contend; the parallelism
// that matters is inside the round.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"shmt"
	"shmt/internal/telemetry"
)

// Errors the admission path surfaces; the HTTP layer maps them to statuses.
var (
	// ErrQueueFull sheds a request because its tenant's admission queue is at
	// capacity (HTTP 429 + Retry-After). The error message names the shedding
	// tenant so 429s are attributable.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrDraining refuses a request because the server is shutting down
	// (HTTP 503 + Retry-After).
	ErrDraining = errors.New("serve: server is draining")
)

// Backend is the slice of shmt.Session the serving layer needs; the
// indirection keeps the batcher testable against fakes. ExecuteBatch must not
// retain reqs: the dispatcher reuses the slice for the next round.
type Backend interface {
	ExecuteBatch(reqs []shmt.BatchRequest) (*shmt.BatchResult, error)
	QuarantinedDevices() []string
}

// DefaultTenant is the queue a request with no X-SHMT-Tenant header lands in.
const DefaultTenant = "default"

// TenantConfig sets one tenant's admission QoS.
type TenantConfig struct {
	// Weight is the tenant's deficit-round-robin drain weight: with queues
	// backed up, a tenant drains Weight requests per rotation, so drain
	// shares track the weight ratio. Values below 1 mean the default of 1.
	Weight int
	// QueueDepth bounds this tenant's own admission queue; 0 inherits the
	// global Config.QueueDepth.
	QueueDepth int
}

// Config tunes the serving layer. The zero value serves with the defaults
// noted per field.
type Config struct {
	// MaxBatch is the most requests one micro-batch round may coalesce
	// (default 16).
	MaxBatch int
	// MaxLinger is a ceiling, not a timer: the longest the dispatcher holds
	// a partial round open for a request that has been announced
	// (Batcher.Announce) but not yet queued (default 2ms). With nothing
	// announced a round never waits, so a lone request pays none of it; a
	// client that trickles its body in delays other requests' rounds by at
	// most this much.
	MaxLinger time.Duration
	// QueueDepth bounds each tenant's admission queue (per tenant, not
	// shared); requests beyond it are shed with ErrQueueFull (default
	// 4×MaxBatch). Tenants may override it via Tenants.
	QueueDepth int
	// Tenants configures per-tenant drain weights and queue depths, keyed by
	// tenant name (the X-SHMT-Tenant header value; requests without one map
	// to DefaultTenant). Tenants not listed here get weight 1 and the global
	// QueueDepth, so with no entries at all admission behaves exactly like
	// the old single shared FIFO.
	Tenants map[string]TenantConfig
	// DefaultTimeout is the per-request deadline applied when the client
	// does not send one (default 30s).
	DefaultTimeout time.Duration
	// CriticalDeadline, when positive, converts per-request deadlines into
	// QAWS criticality pressure: a request whose timeout is below this
	// threshold carries DeadlinePressure = 1 − timeout/CriticalDeadline into
	// the engine, raising the fraction of its partitions routed to the most
	// accurate device. 0 (the default) disables deadline pressure entirely.
	CriticalDeadline time.Duration
	// RetryAfter is the Retry-After hint attached to shed and draining
	// responses (default 1s).
	RetryAfter time.Duration
	// Spans, when non-nil, receives one wall-clock span per micro-batch
	// round (wire it to Session.TelemetryRecorder).
	Spans *telemetry.Recorder
	// Tracing enables request-scoped tracing: trace IDs assigned at HTTP
	// admission (honouring inbound X-SHMT-Trace-Id), per-request stage
	// breakdowns, flight-recorder retention, request lanes in the Perfetto
	// export, and exemplars on the latency histogram. Off by default; the
	// disabled request path performs no clock reads or allocations beyond
	// the untraced baseline.
	//
	// Engine-stage attribution (the plan/quantize_transfer/execute/aggregate
	// stages) additionally requires telemetry to be enabled on the backend
	// session (shmt.Config.Telemetry.Enabled, or telemetry.Enable plus an
	// attached recorder) — the engine only reads its stage clocks when its
	// run telemetry is active. With Tracing on but session telemetry off,
	// traces still carry queue_wait and batch_linger but the engine stages
	// report zero. shmtserved force-enables session telemetry whenever
	// tracing is on; library embedders must do the same.
	Tracing bool
	// FlightRecorderSize caps the flight recorder's rings (default
	// telemetry.DefaultFlightRecorderSize). Only meaningful with Tracing.
	FlightRecorderSize int
	// SlowSLO is the latency threshold above which a trace is retained in
	// the flight recorder's slow ring (0 disables slow retention). Only
	// meaningful with Tracing.
	SlowSLO time.Duration
	// Logger, when non-nil, receives one structured line per request
	// outcome plus server lifecycle events. Nil keeps the serving layer
	// silent.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof's handlers under /debug/pprof/ on
	// the serving mux. Off by default — profiling endpoints are opt-in.
	EnablePprof bool
}

func (c Config) withDefaults() Config {
	if c.MaxBatch < 1 {
		c.MaxBatch = 16
	}
	if c.MaxLinger <= 0 {
		c.MaxLinger = 2 * time.Millisecond
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 4 * c.MaxBatch
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Result is one request's share of a completed micro-batch round.
type Result struct {
	// Report is the request's own report (output, makespan, HLOP count).
	Report *shmt.Report
	// BatchSize is how many requests the round coalesced.
	BatchSize int
	// Degraded is the round's batch-wide degradation report (nil when the
	// round saw no device failures).
	Degraded *shmt.Degraded
	// Stages is the request's stage breakdown when tracing is on (zero
	// otherwise). Queue wait and batch linger are per request; the
	// plan/transfer/execute/aggregate stages are the round's, shared by
	// every request it coalesced.
	Stages telemetry.StageBreakdown
}

// pending is one admitted request waiting for its round.
type pending struct {
	req  shmt.BatchRequest
	ctx  context.Context
	done chan outcome // buffered(1); the dispatcher never blocks on it

	// Tracing-only timestamps (zero when Config.Tracing is off, so the
	// untraced path never reads the clock): admission into the queue,
	// pickup by the dispatcher, and admission on the span recorder's
	// timeline for the request-lane stage slices.
	admitted    time.Time
	gathered    time.Time
	admittedRel float64
}

type outcome struct {
	res Result
	err error
}

// tenantQueue is one tenant's FIFO admission queue plus its deficit
// round-robin state. Guarded by Batcher.mu.
type tenantQueue struct {
	name    string
	weight  int
	depth   int
	deficit float64
	q       []*pending

	dispatched uint64 // requests popped by the dispatcher
	shed       uint64 // requests refused with ErrQueueFull
}

// TenantStatus is one tenant queue's point-in-time snapshot (for /statusz).
type TenantStatus struct {
	Name       string `json:"name"`
	Weight     int    `json:"weight"`
	QueueDepth int    `json:"queue_depth"`
	Queued     int    `json:"queued"`
	Dispatched uint64 `json:"dispatched"`
	Shed       uint64 `json:"shed"`
}

// Batcher is the tenant-aware admission queue + dispatcher pair.
type Batcher struct {
	cfg Config
	be  Backend

	// mu guards the tenant queues, rotation state and the draining flag, so
	// admission, the deficit round-robin pop and Close are mutually atomic.
	mu       sync.Mutex
	draining bool
	tenants  map[string]*tenantQueue
	order    []*tenantQueue // rotation order = first-submission order
	rrIdx    int            // current rotation position in order
	queued   int            // total requests across all tenant queues
	arriving int            // announced requests not yet queued or released

	// batch and reqs are the dispatcher's round buffers, reused round after
	// round and cleared after each flush so finished requests are not pinned.
	batch []*pending
	reqs  []shmt.BatchRequest

	// notify wakes the dispatcher after an enqueue or a retired announcement
	// (buffered 1: concurrent wake-ups coalesce into one token; the
	// dispatcher re-reads the queues and the arriving count under mu).
	notify chan struct{}
	// drainCh is closed by the first Close, unblocking the dispatcher's
	// waits so it drains the queues and exits.
	drainCh chan struct{}

	// inflight counts rounds currently inside ExecuteBatch. Unlike the
	// telemetry gauges it is not gated on the enable switch, so /statusz
	// reads it even with telemetry off.
	inflight atomic.Int64

	done chan struct{} // closed when the dispatcher has drained and exited
}

// NewBatcher starts the dispatcher; callers own exactly one Close.
func NewBatcher(be Backend, cfg Config) *Batcher {
	b := &Batcher{
		cfg:     cfg.withDefaults(),
		be:      be,
		tenants: map[string]*tenantQueue{},
		notify:  make(chan struct{}, 1),
		drainCh: make(chan struct{}),
		done:    make(chan struct{}),
	}
	go b.run()
	return b
}

// tenantQueueLocked returns (creating on first use) the named tenant's
// queue. Caller holds b.mu.
func (b *Batcher) tenantQueueLocked(name string) *tenantQueue {
	tq, ok := b.tenants[name]
	if !ok {
		tc := b.cfg.Tenants[name]
		w := tc.Weight
		if w < 1 {
			w = 1
		}
		d := tc.QueueDepth
		if d < 1 {
			d = b.cfg.QueueDepth
		}
		tq = &tenantQueue{name: name, weight: w, depth: d}
		b.tenants[name] = tq
		b.order = append(b.order, tq)
	}
	return tq
}

// popLocked removes and returns the next request under deficit-weighted
// round-robin, or nil when every queue is empty. Each rotation stop grants
// the tenant `weight` units of deficit and drains one unit per pop, so over
// a backlog the drain shares converge to the weight ratio; a lone tenant is
// popped strictly FIFO. Caller holds b.mu.
func (b *Batcher) popLocked() *pending {
	if b.queued == 0 {
		return nil
	}
	for {
		if b.rrIdx >= len(b.order) {
			b.rrIdx = 0
		}
		tq := b.order[b.rrIdx]
		if len(tq.q) == 0 {
			// An emptied queue forfeits unused deficit: credit must not
			// accumulate while a tenant is idle.
			tq.deficit = 0
			b.rrIdx++
			continue
		}
		if tq.deficit < 1 {
			tq.deficit += float64(tq.weight)
		}
		p := tq.q[0]
		tq.q[0] = nil
		tq.q = tq.q[1:]
		tq.deficit--
		tq.dispatched++
		b.queued--
		if len(tq.q) == 0 {
			tq.q = nil // release the drained backing array
		}
		if tq.deficit < 1 {
			b.rrIdx++
		}
		telemetry.ServeQueueDepth.Add(-1)
		telemetry.ServeTenantQueueDepth.With(tq.name).Add(-1)
		telemetry.ServeTenantDispatched.With(tq.name).Inc()
		return p
	}
}

// Arrival is a request the front-end has accepted but not yet queued: while
// one is outstanding the dispatcher holds a partial round open for it (at
// most MaxLinger). Exactly one of Submit or Release ends it; both may be
// called, in any order, and only the first counts. An Arrival belongs to the
// goroutine that announced it and must not be copied once used; it is a value
// so that announcing costs the request path no allocation.
type Arrival struct {
	b       *Batcher
	retired bool
}

// Announce tells the dispatcher a request is on its way. The caller must end
// the Arrival on every path — `defer a.Release()` is the idiom.
func (b *Batcher) Announce() Arrival {
	b.mu.Lock()
	b.arriving++
	b.mu.Unlock()
	return Arrival{b: b}
}

// retireLocked takes a's announcement off the arriving count, once. A nil
// Arrival (an unannounced Submit) retires nothing. Caller holds b.mu.
func (a *Arrival) retireLocked() {
	if a != nil && !a.retired {
		a.retired = true
		a.b.arriving--
	}
}

// Release withdraws the announcement without submitting (the request was
// refused, or its client went away) and wakes the dispatcher, so a round
// waiting for it is freed immediately. A no-op after Submit or Release.
func (a *Arrival) Release() {
	if a.retired {
		return
	}
	a.b.mu.Lock()
	a.retireLocked()
	a.b.mu.Unlock()
	a.b.wake()
}

// Submit is Batcher.Submit for the announced request: the announcement is
// retired in the same critical section that queues (or refuses) it, so the
// dispatcher never sees the request as neither arriving nor queued.
func (a *Arrival) Submit(ctx context.Context, req shmt.BatchRequest) (Result, error) {
	return a.b.submit(ctx, req, a)
}

// wake nudges the dispatcher to re-read the queues and the arriving count.
func (b *Batcher) wake() {
	select {
	case b.notify <- struct{}{}:
	default:
	}
}

// Submit admits one request and blocks until its round completes or ctx
// expires. It never blocks on admission: a full tenant queue sheds
// immediately with ErrQueueFull (wrapped with the tenant name), and after
// Close it refuses with ErrDraining. A request submitted without an
// announcement is simply dispatched as soon as the dispatcher is free.
func (b *Batcher) Submit(ctx context.Context, req shmt.BatchRequest) (Result, error) {
	return b.submit(ctx, req, nil)
}

func (b *Batcher) submit(ctx context.Context, req shmt.BatchRequest, a *Arrival) (Result, error) {
	tenant := req.Tenant
	if tenant == "" {
		tenant = DefaultTenant
	}
	p := &pending{req: req, ctx: ctx, done: make(chan outcome, 1)}
	if b.cfg.Tracing {
		p.admitted = time.Now()
		if b.cfg.Spans != nil {
			p.admittedRel = b.cfg.Spans.Now()
		}
	}

	b.mu.Lock()
	a.retireLocked()
	if b.draining {
		b.mu.Unlock()
		b.wake()
		return Result{}, ErrDraining
	}
	tq := b.tenantQueueLocked(tenant)
	if len(tq.q) >= tq.depth {
		tq.shed++
		b.mu.Unlock()
		b.wake()
		telemetry.ServeTenantShed.With(tenant).Inc()
		return Result{}, fmt.Errorf("%w: tenant %q at queue depth %d", ErrQueueFull, tenant, tq.depth)
	}
	tq.q = append(tq.q, p)
	b.queued++
	b.mu.Unlock()
	b.wake()
	telemetry.ServeQueueDepth.Add(1)
	telemetry.ServeTenantQueueDepth.With(tenant).Add(1)

	select {
	case out := <-p.done:
		return out.res, out.err
	case <-ctx.Done():
		// Abandoned while queued (or mid-round): the dispatcher drops
		// expired requests at flush time; an outcome racing in here lands
		// in the buffered channel and is garbage-collected with it.
		return Result{}, ctx.Err()
	}
}

// Close stops admission and waits — bounded by ctx — for the dispatcher to
// drain every queued request. Safe to call more than once.
func (b *Batcher) Close(ctx context.Context) error {
	b.mu.Lock()
	already := b.draining
	b.draining = true
	b.mu.Unlock()
	if !already {
		// No Submit can be between its draining check and its enqueue now,
		// so the dispatcher drains a frozen backlog and exits.
		close(b.drainCh)
	}
	select {
	case <-b.done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted: %w", ctx.Err())
	}
}

// run is the dispatcher: one micro-batch round per iteration until draining
// has been requested and the queues are empty.
func (b *Batcher) run() {
	defer close(b.done)
	for {
		first := b.waitPop()
		if first == nil {
			return
		}
		if b.cfg.Tracing {
			first.gathered = time.Now()
		}
		b.flush(b.gather(first))
		clear(b.batch)
		clear(b.reqs)
	}
}

// waitPop blocks until a request is available (returning it) or draining
// begins with nothing queued (returning nil).
func (b *Batcher) waitPop() *pending {
	for {
		b.mu.Lock()
		p := b.popLocked()
		draining := b.draining
		b.mu.Unlock()
		if p != nil {
			return p
		}
		if draining {
			return nil
		}
		select {
		case <-b.notify:
		case <-b.drainCh:
		}
	}
}

// QueueLen returns how many requests are waiting across all tenant queues.
func (b *Batcher) QueueLen() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.queued
}

// QueueCap returns the default per-tenant admission queue bound.
func (b *Batcher) QueueCap() int { return b.cfg.QueueDepth }

// Arriving returns how many announced requests have been neither queued nor
// released. It returns to zero whenever no handler is mid-request; a value
// that stays up is a leaked announcement.
func (b *Batcher) Arriving() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.arriving
}

// InFlight returns how many micro-batch rounds are currently executing.
func (b *Batcher) InFlight() int64 { return b.inflight.Load() }

// Tenants snapshots every tenant queue seen so far, in first-submission
// order.
func (b *Batcher) Tenants() []TenantStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]TenantStatus, 0, len(b.order))
	for _, tq := range b.order {
		out = append(out, TenantStatus{
			Name:       tq.name,
			Weight:     tq.weight,
			QueueDepth: tq.depth,
			Queued:     len(tq.q),
			Dispatched: tq.dispatched,
			Shed:       tq.shed,
		})
	}
	return out
}

// gather assembles one round: the first request plus whatever the deficit
// rotation yields, up to MaxBatch. With the queues empty it waits only while
// an announced request is still on its way, and for at most MaxLinger over
// the whole round; otherwise the round goes as it is.
func (b *Batcher) gather(first *pending) []*pending {
	b.batch = append(b.batch[:0], first)
	var linger *time.Timer // created on the round's first wait: most rounds never wait
round:
	for len(b.batch) < b.cfg.MaxBatch {
		b.mu.Lock()
		p := b.popLocked()
		// Draining freezes the backlog: take what is queued and go.
		wait := p == nil && b.arriving > 0 && !b.draining
		b.mu.Unlock()
		if p != nil {
			if b.cfg.Tracing {
				p.gathered = time.Now()
			}
			b.batch = append(b.batch, p)
			continue
		}
		if !wait {
			break
		}
		if linger == nil {
			linger = time.NewTimer(b.cfg.MaxLinger)
		}
		select {
		case <-b.notify:
		case <-b.drainCh:
		case <-linger.C:
			break round
		}
	}
	if linger != nil {
		linger.Stop()
	}
	return b.batch
}

// flush runs one round: expired requests are answered without occupying a
// batch slot, the rest execute as one ExecuteBatch call and each gets its
// own report back.
func (b *Batcher) flush(batch []*pending) {
	live := batch[:0]
	for _, p := range batch {
		if err := p.ctx.Err(); err != nil {
			p.done <- outcome{err: err}
			continue
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		return
	}

	reqs := b.reqs[:0]
	for _, p := range live {
		reqs = append(reqs, p.req)
	}
	b.reqs = reqs
	var start float64
	if b.cfg.Spans != nil {
		start = b.cfg.Spans.Now()
	}
	var flushAt time.Time
	if b.cfg.Tracing {
		flushAt = time.Now()
	}
	b.inflight.Add(1)
	res, err := b.be.ExecuteBatch(reqs)
	b.inflight.Add(-1)
	if b.cfg.Spans != nil {
		b.cfg.Spans.RecordSpan(telemetry.Span{
			Track: "serve", Name: fmt.Sprintf("batch(%d)", len(reqs)),
			Clock: telemetry.ClockWall, Start: start, End: b.cfg.Spans.Now(),
		})
	}
	telemetry.ServeBatchRounds.Inc()
	telemetry.ServeBatchSize.Observe(float64(len(reqs)))

	if err != nil {
		for _, p := range live {
			p.done <- outcome{err: err}
		}
		return
	}
	for i, p := range live {
		out := outcome{res: Result{
			Report:    res.Reports[i],
			BatchSize: len(reqs),
			Degraded:  res.Degraded,
		}}
		if b.cfg.Tracing {
			out.res.Stages = b.stages(p, flushAt, res)
		}
		p.done <- out
	}
}

// stages assembles one request's stage breakdown from its admission/pickup
// timestamps and the round's engine stage wall times, and — when a span
// recorder is attached — lays the stages out as consecutive slices on the
// request's Perfetto lane.
func (b *Batcher) stages(p *pending, flushAt time.Time, res *shmt.BatchResult) telemetry.StageBreakdown {
	st := telemetry.StageBreakdown{
		QueueWait:   p.gathered.Sub(p.admitted).Seconds(),
		BatchLinger: flushAt.Sub(p.gathered).Seconds(),
		Plan:        res.StageWall.Plan,
		Transfer:    res.StageWall.Transfer,
		Execute:     res.StageWall.Execute,
		Aggregate:   res.StageWall.Aggregate,
	}
	if b.cfg.Spans != nil && p.req.TraceID != "" {
		at := p.admittedRel
		for _, sl := range [...]struct {
			name string
			dur  float64
		}{
			{"queue_wait", st.QueueWait},
			{"batch_linger", st.BatchLinger},
			{"plan", st.Plan},
			{"quantize_transfer", st.Transfer},
			{"execute", st.Execute},
			{"aggregate", st.Aggregate},
		} {
			if sl.dur <= 0 {
				continue
			}
			b.cfg.Spans.RecordSpan(telemetry.Span{
				Name: sl.name, Clock: telemetry.ClockWall,
				Start: at, End: at + sl.dur,
				TraceID: p.req.TraceID, Root: true,
			})
			at += sl.dur
		}
	}
	return st
}
