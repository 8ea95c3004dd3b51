package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"shmt/internal/serve"
	"shmt/internal/telemetry"
	"shmt/internal/vop"
	"shmt/internal/wire"
)

// TenantHeader carries the client's tenant identity; it is the first
// component of the placement key, so one tenant's working set stays on the
// backends that already hold its plan and exec-time caches. The backend
// tier reads the same header into its per-tenant admission queues, so one
// name governs the whole request path.
const TenantHeader = serve.TenantHeader

// BackendHeader names the backend that served a proxied request — smoke
// tests and operators use it to see placement without scraping metrics.
const BackendHeader = "X-Shmt-Backend"

// ScatterHeader carries the partition count of a scatter-gathered response.
const ScatterHeader = "X-Shmt-Scatter"

// maxAttempts bounds dispatch attempts per proxied request: the primary
// plus failovers to ring replicas.
const maxAttempts = 3

// RouterConfig tunes the router front-end. Zero values select the defaults
// noted per field.
type RouterConfig struct {
	// Pool tunes backend membership, probing and breakers.
	Pool PoolConfig
	// Seeds are backends known at startup (host:port); more may register at
	// runtime via POST /v1/register.
	Seeds []string
	// BackendTimeout bounds one backend round-trip (default 30s).
	BackendTimeout time.Duration
	// ScatterThreshold is the first-input element count at or above which an
	// eligible VOP is scatter-gathered across backends instead of proxied
	// whole (default 1<<21 elements, 16 MB of float64; negative disables
	// scatter entirely).
	ScatterThreshold int
	// MaxFanout caps how many partitions a scattered VOP splits into
	// (default 4).
	MaxFanout int
	// RetryAfter is the Retry-After hint on 503 responses (default 1s).
	RetryAfter time.Duration
	// TenantLimits caps concurrent in-flight requests per tenant at the
	// router, keyed by X-SHMT-Tenant value (requests without the header
	// count under serve.DefaultTenant). A tenant over its cap is shed with
	// 429 + Retry-After before any backend is touched. Absent tenants are
	// unlimited.
	TenantLimits map[string]int
	// Logger, when non-nil, receives request and lifecycle logs, the backend
	// pool's included.
	Logger *slog.Logger
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.BackendTimeout <= 0 {
		c.BackendTimeout = 30 * time.Second
	}
	if c.ScatterThreshold == 0 {
		c.ScatterThreshold = 1 << 21
	}
	if c.MaxFanout <= 0 {
		c.MaxFanout = 4
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Router is the cluster front-end: it owns the backend pool and serves
//
//	POST /v1/execute  — proxy to the key's backend, failover to replicas,
//	                    scatter-gather for very large eligible VOPs
//	POST /v1/register — backend self-registration
//	GET  /healthz     — ok | degraded | draining (503), mirroring shmtserved
//	GET  /statusz     — backends, breakers, ring and fleet introspection
//	GET  /metrics     — Prometheus exposition of the process registry
type Router struct {
	serve.Endpoint
	cfg      RouterConfig
	pool     *Pool
	draining atomic.Bool
	started  time.Time
	// tenantInflight tracks concurrent requests for capped tenants only
	// (keys fixed at construction, so concurrent map reads are safe).
	tenantInflight map[string]*atomic.Int64
}

// NewRouter builds a router and starts its backend pool (prober included).
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	pool, err := NewPool(cfg.Pool, cfg.Seeds, cfg.Logger)
	if err != nil {
		return nil, err
	}
	rt := &Router{cfg: cfg, pool: pool, started: time.Now(),
		tenantInflight: map[string]*atomic.Int64{}}
	for tenant, limit := range cfg.TenantLimits {
		if limit > 0 {
			rt.tenantInflight[tenant] = &atomic.Int64{}
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/execute", rt.handleExecute)
	mux.HandleFunc("POST /v1/register", rt.handleRegister)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /statusz", rt.handleStatusz)
	mux.HandleFunc("GET /metrics", telemetry.ExpositionHandler(telemetry.Default))
	rt.Endpoint = serve.NewEndpoint(mux)
	return rt, nil
}

// Pool exposes the backend pool (registration from the daemon, tests).
func (rt *Router) Pool() *Pool { return rt.pool }

// Shutdown drains: new requests get 503 + Retry-After, in-flight proxies
// finish (bounded by ctx), then the listener closes and the prober stops —
// the same discipline as shmtserved.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.draining.Store(true)
	if rt.cfg.Logger != nil {
		rt.cfg.Logger.Info("drain begin")
	}
	err := rt.Endpoint.Shutdown(ctx)
	rt.pool.Close()
	if rt.cfg.Logger != nil {
		rt.cfg.Logger.Info("drain end")
	}
	return err
}

type registerRequest struct {
	Addr string `json:"addr"`
}

type registerResponse struct {
	OK       bool   `json:"ok"`
	Addr     string `json:"addr"`
	Backends int    `json:"backends"`
}

// handleRegister admits a backend into the pool. Idempotent: a restarted
// backend re-announcing itself is fine. A blank or wildcard host in the
// announced addr is replaced with the peer address the registration came
// from, so backends listening on 0.0.0.0 register reachable endpoints.
func (rt *Router) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<12)).Decode(&req); err != nil {
		wire.WriteError(w, http.StatusBadRequest, "bad register body: "+err.Error())
		return
	}
	host, port, err := net.SplitHostPort(req.Addr)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, "addr must be host:port: "+err.Error())
		return
	}
	if host == "" || host == "0.0.0.0" || host == "::" {
		if peer, _, perr := net.SplitHostPort(r.RemoteAddr); perr == nil {
			host = peer
		}
	}
	addr := net.JoinHostPort(host, port)
	added, err := rt.pool.Add(addr)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if added && rt.cfg.Logger != nil {
		rt.cfg.Logger.Info("backend self-registered", "backend", addr)
	}
	wire.WriteJSON(w, http.StatusOK, registerResponse{OK: true, Addr: addr, Backends: rt.pool.Len()})
}

type routerHealth struct {
	Status      string   `json:"status"` // "ok" | "degraded" | "draining" | "unavailable"
	Backends    int      `json:"backends"`
	Healthy     int      `json:"healthy"`
	Quarantined []string `json:"quarantined,omitempty"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if rt.draining.Load() {
		// Same contract as every other 503 on both tiers: tell pollers when
		// to come back.
		w.Header().Set("Retry-After", serve.RetryAfterSeconds(rt.cfg.RetryAfter))
		wire.WriteJSON(w, http.StatusServiceUnavailable, routerHealth{Status: "draining"})
		return
	}
	total := rt.pool.Len()
	healthy := len(rt.pool.Healthy())
	quar := rt.pool.Quarantined()
	h := routerHealth{Backends: total, Healthy: healthy, Quarantined: quar}
	switch {
	case healthy == 0:
		// Nothing can serve: unlike a degraded node, the router really is
		// down for work, so load balancers should route away.
		h.Status = "unavailable"
		w.Header().Set("Retry-After", serve.RetryAfterSeconds(rt.cfg.RetryAfter))
		wire.WriteJSON(w, http.StatusServiceUnavailable, h)
	case len(quar) > 0:
		h.Status = "degraded"
		wire.WriteJSON(w, http.StatusOK, h)
	default:
		h.Status = "ok"
		wire.WriteJSON(w, http.StatusOK, h)
	}
}

type routerStatus struct {
	Service       string          `json:"service"`
	UptimeSeconds float64         `json:"uptime_seconds"`
	Draining      bool            `json:"draining"`
	ScatterElems  int             `json:"scatter_threshold_elems"`
	MaxFanout     int             `json:"max_fanout"`
	Backends      []BackendStatus `json:"backends"`
}

func (rt *Router) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	wire.WriteJSON(w, http.StatusOK, routerStatus{
		Service:       "shmtrouterd",
		UptimeSeconds: time.Since(rt.started).Seconds(),
		Draining:      rt.draining.Load(),
		ScatterElems:  rt.cfg.ScatterThreshold,
		MaxFanout:     rt.cfg.MaxFanout,
		Backends:      rt.pool.Statuses(),
	})
}

func (rt *Router) handleExecute(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	outcome := "error"
	defer func() {
		telemetry.RouterRequests.With(outcome).Inc()
		telemetry.RouterRequestSeconds.Observe(time.Since(start).Seconds())
	}()

	traceID := serve.SanitizeTraceID(r.Header.Get(serve.TraceHeader))
	if traceID == "" {
		traceID = telemetry.NewTraceID()
	}
	w.Header().Set(serve.TraceHeader, traceID)

	if rt.draining.Load() {
		outcome = "draining"
		w.Header().Set("Retry-After", serve.RetryAfterSeconds(rt.cfg.RetryAfter))
		wire.WriteError(w, http.StatusServiceUnavailable, "router draining")
		return
	}

	tenant := serve.SanitizeTenant(r.Header.Get(TenantHeader))
	tenantLabel := tenant
	if tenantLabel == "" {
		tenantLabel = serve.DefaultTenant
	}
	telemetry.RouterTenantRequests.With(tenantLabel).Inc()
	if inflight, capped := rt.tenantInflight[tenantLabel]; capped {
		if inflight.Add(1) > int64(rt.cfg.TenantLimits[tenantLabel]) {
			inflight.Add(-1)
			outcome = "shed"
			telemetry.RouterTenantShed.With(tenantLabel).Inc()
			w.Header().Set("Retry-After", serve.RetryAfterSeconds(rt.cfg.RetryAfter))
			wire.WriteError(w, http.StatusTooManyRequests,
				fmt.Sprintf("tenant %q over in-flight limit %d", tenantLabel, rt.cfg.TenantLimits[tenantLabel]))
			return
		}
		// handleExecute is synchronous through response relay, so the
		// in-flight count drops as soon as the tenant's request is answered.
		defer inflight.Add(-1)
	}

	// Placement needs the opcode and the first input's shape: the head of the
	// body. What follows it is validated by the tier that converts it — the
	// backend this request is proxied to, whose 400 is relayed, or the index
	// below when it scatters.
	var req *wire.Request
	body, err := wire.ReadBody(w, r)
	if err == nil {
		defer body.Release() // after the last attempt's client.Do has returned
		req, err = wire.PeekRequest(body.Bytes())
	}
	if err != nil {
		outcome = "invalid"
		wire.WriteError(w, wire.StatusOf(err), "bad request body: "+err.Error())
		return
	}
	op, err := req.Opcode()
	if err != nil {
		outcome = "invalid"
		wire.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	peek := time.Since(start) // reading the body included
	key := Key{
		Tenant: tenant, // the name limits, metrics and the backend account it to
		Op:     op.String(),
		Rows:   req.Inputs[0].Rows,
		Cols:   req.Inputs[0].Cols,
	}

	if rt.shouldScatter(op, key.Rows, key.Cols) {
		if done := rt.executeScatter(w, r, body, op, traceID, &outcome); done {
			rt.logRequest(r.Context(), traceID, key, "scatter", outcome, start, peek)
			return
		}
		// Scatter declined (a fault after the head, or inputs that fail VOP
		// validation, which the backend should report): fall through to the
		// proxy path.
	}
	rt.executeProxy(w, r, body, key, traceID, &outcome)
	rt.logRequest(r.Context(), traceID, key, "proxy", outcome, start, peek)
}

func (rt *Router) logRequest(ctx context.Context, traceID string, key Key, path, outcome string, start time.Time, peek time.Duration) {
	if rt.cfg.Logger == nil {
		return
	}
	rt.cfg.Logger.LogAttrs(ctx, serve.OutcomeLevel(outcome), "route",
		slog.String("trace_id", traceID),
		slog.String("key", key.String()),
		slog.String("path", path),
		slog.String("outcome", outcome),
		slog.Float64("peek_ms", peek.Seconds()*1e3),
		slog.Float64("total_ms", time.Since(start).Seconds()*1e3),
	)
}

// shouldScatter decides the scatter path: an eligible opcode, a first input
// at or above the threshold, and at least two healthy backends to spread
// over (with one, whole-VOP proxying is strictly cheaper — no gather).
func (rt *Router) shouldScatter(op vop.Opcode, rows, cols int) bool {
	if rt.cfg.ScatterThreshold < 0 || !ScatterEligible(op) {
		return false
	}
	// Compare in int64: rows*cols can exceed MaxInt32 on 32-bit platforms
	// (exactly the shapes scatter exists for), and the wrapped product
	// would silently flip the decision. Negative dimensions never scatter.
	if rows < 0 || cols < 0 {
		return false
	}
	if int64(rows)*int64(cols) < int64(rt.cfg.ScatterThreshold) {
		return false
	}
	return len(rt.pool.Healthy()) >= 2
}

// executeScatter runs the scatter-gather path on the request text: one index
// of the body — the only full scan the router makes of any request — validates
// it, gives every input's shape for the partition geometry and says where each
// partition's numbers are, and the router copies them — to the backends and
// back — without converting one. It reports whether it wrote a response
// (false = caller should fall back to proxying, so that the backend produces
// the canonical 400).
func (rt *Router) executeScatter(w http.ResponseWriter, r *http.Request, body *wire.Body, op vop.Opcode, traceID string, outcome *string) bool {
	req, err := wire.IndexRequest(body.Bytes())
	if err != nil {
		return false
	}
	defer req.Release() // every partition is built by the time scatterExecute returns
	v := shapeVOP(op, req.Inputs)
	fanout := rt.cfg.MaxFanout
	if n := len(rt.pool.Healthy()); fanout > n {
		fanout = n
	}
	plan, err := PlanScatter(v, fanout) // vop.Validate included
	if err != nil {
		return false
	}
	// Honor the client's timeout_ms exactly as the single-node path does:
	// it bounds the whole scatter (the context) and tightens the per-
	// partition dispatch timeout forwarded to backends. Without one only the
	// dispatches are bounded, so a partition whose backend hangs still has
	// time to fail over; with one, it is clamped to the longest the proxy
	// path would wait (every attempt timing out).
	ctx := r.Context()
	if req.TimeoutMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx,
			wire.Timeout(req.TimeoutMs, maxAttempts*rt.cfg.BackendTimeout))
		defer cancel()
	}
	timeout := wire.Timeout(req.TimeoutMs, rt.cfg.BackendTimeout)
	parts, oc, err := scatterExecute(ctx, rt.pool, plan, v, req, traceID, timeout)
	if err != nil {
		*outcome = "error"
		code := http.StatusBadGateway
		var refused *RemoteError
		switch {
		case errors.As(err, &refused) && refused.Status/100 == 4 && refused.Status != http.StatusTooManyRequests:
			// A partition refused as the whole request would have been (a
			// result JSON cannot carry, say): the client's error, relayed.
			*outcome = "invalid"
			code = refused.Status
		case errors.Is(err, errNoBackends):
			*outcome = "unavailable"
			code = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", serve.RetryAfterSeconds(rt.cfg.RetryAfter))
		case errors.Is(err, context.DeadlineExceeded):
			*outcome = "timeout"
			code = http.StatusGatewayTimeout
		case errors.Is(err, context.Canceled):
			// The client went away: 499, as shmtserved answers it.
			*outcome = "canceled"
			code = 499
		}
		wire.WriteError(w, code, err.Error())
		return true
	}
	defer releaseParts(parts)
	*outcome = "ok"
	w.Header().Set(ScatterHeader, strconv.Itoa(len(parts)))
	wire.WriteGathered(w, plan.Rows, plan.Cols, parts, oc.makespan)
	return true
}

// executeProxy relays the request to the key's backend, failing over to ring
// replicas on retryable errors, and streams the winning response through.
func (rt *Router) executeProxy(w http.ResponseWriter, r *http.Request, body *wire.Body, key Key, traceID string, outcome *string) {
	order, rehashed := rt.pool.Route(key)
	if len(order) == 0 {
		*outcome = "unavailable"
		w.Header().Set("Retry-After", serve.RetryAfterSeconds(rt.cfg.RetryAfter))
		wire.WriteError(w, http.StatusServiceUnavailable, "no healthy backend")
		return
	}
	if rehashed {
		telemetry.RouterRehashes.Inc()
	}
	attempts := min(maxAttempts, len(order))

	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		b := order[attempt]
		if attempt > 0 && b.Quarantined() {
			continue
		}
		if attempt > 0 {
			telemetry.RouterFailovers.Inc()
		}
		resp, err := rt.proxyOnce(r, b, body, traceID)
		if err != nil {
			lastErr = err
			if errors.Is(err, context.Canceled) {
				*outcome = "canceled"
				wire.WriteError(w, 499, err.Error())
				return
			}
			rt.pool.NoteFailure(b)
			continue
		}
		if retryableStatus(resp.StatusCode) && attempt+1 < attempts {
			lastErr = fmt.Errorf("backend %s: http %d", b.addr, resp.StatusCode)
			if resp.StatusCode != http.StatusTooManyRequests {
				rt.pool.NoteFailure(b)
			}
			resp.Body.Close()
			continue
		}
		if resp.StatusCode/100 == 2 {
			rt.pool.NoteSuccess(b)
			if attempt == 0 {
				*outcome = "ok"
			} else {
				*outcome = "failover_ok"
			}
		} else {
			*outcome = outcomeForStatus(resp.StatusCode)
		}
		relayResponse(w, resp, b.addr, traceID)
		return
	}
	*outcome = "unavailable"
	w.Header().Set("Retry-After", serve.RetryAfterSeconds(rt.cfg.RetryAfter))
	msg := "all backends failed"
	if lastErr != nil {
		msg = fmt.Sprintf("all backends failed: %v", lastErr)
	}
	wire.WriteError(w, http.StatusServiceUnavailable, msg)
}

// proxyOnce sends one dispatch attempt to b. The caller owns resp.Body.
func (rt *Router) proxyOnce(r *http.Request, b *Backend, body *wire.Body, traceID string) (*http.Response, error) {
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.BackendTimeout)
	req, err := wire.NewPost(ctx, b.base+"/v1/execute", body, 0) // the client's body as it is
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set(serve.TraceHeader, traceID)
	if t := r.Header.Get(TenantHeader); t != "" {
		req.Header.Set(TenantHeader, t)
	}
	release := rt.pool.Acquire(b)
	resp, err := rt.pool.Client().Do(req)
	if err != nil {
		release()
		cancel()
		return nil, err
	}
	// Wrap the body so in-flight accounting and the context live until the
	// response is fully relayed.
	resp.Body = &bodyCloser{ReadCloser: resp.Body, done: func() { release(); cancel() }}
	return resp, nil
}

type bodyCloser struct {
	io.ReadCloser
	done func()
}

func (bc *bodyCloser) Close() error {
	err := bc.ReadCloser.Close()
	if bc.done != nil {
		bc.done()
		bc.done = nil
	}
	return err
}

// retryableStatus: responses worth re-trying on a replica. 5xx covers a
// draining (503) or dying backend; 429 means that backend's queue is full —
// a replica may have room. 4xx client errors and 200s pass through.
func retryableStatus(code int) bool {
	return code >= 500 || code == http.StatusTooManyRequests
}

func outcomeForStatus(code int) string {
	switch {
	case code == http.StatusTooManyRequests:
		return "unavailable"
	case code >= 500:
		return "error"
	case code >= 400:
		return "invalid"
	default:
		return "ok"
	}
}

// relayResponse streams a backend response to the client, preserving the
// degradation and accounting headers and stamping the router's own metadata.
func relayResponse(w http.ResponseWriter, resp *http.Response, backend, traceID string) {
	defer resp.Body.Close()
	for _, h := range []string{
		"Content-Type", "Content-Length", "Retry-After", TenantHeader,
		serve.BatchSizeHeader, serve.DegradedHeader, serve.QuarantinedHeader,
	} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(serve.TraceHeader, traceID)
	w.Header().Set(BackendHeader, backend)
	w.WriteHeader(resp.StatusCode)
	_, _ = copyThrough(w, resp.Body)
}
