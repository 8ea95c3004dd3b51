package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"shmt"
	"shmt/internal/telemetry"
	"shmt/internal/tensor"
	"shmt/internal/wire"
)

type healthResponse struct {
	Status      string   `json:"status"` // "ok" | "degraded" | "draining"
	Quarantined []string `json:"quarantined,omitempty"`
}

// Server ties the batcher to an HTTP listener: POST /v1/execute for work,
// GET /healthz for health (degraded while breakers are open, draining — and
// 503 — during shutdown), GET /metrics for Prometheus exposition of the
// process registry. The execute schema is internal/wire's; responses add the
// headers BatchSizeHeader, DegradedHeader and (when breakers are open)
// QuarantinedHeader.
type Server struct {
	Endpoint
	cfg      Config
	be       Backend
	batcher  *Batcher
	draining atomic.Bool
	started  time.Time
	flight   *telemetry.FlightRecorder
	logger   *slog.Logger
	// onRelease (tests only) sees a request's tensors just before they are recycled.
	onRelease func(inputs []*tensor.Matrix, dst *tensor.Matrix)
}

// New builds a server around be. Call Listen then Serve; Shutdown drains.
func New(be Backend, cfg Config) *Server {
	s := &Server{cfg: cfg.withDefaults(), be: be, started: time.Now(), logger: cfg.Logger}
	s.batcher = NewBatcher(be, s.cfg)
	if s.cfg.Tracing {
		s.flight = telemetry.NewFlightRecorder(s.cfg.FlightRecorderSize, s.cfg.SlowSLO)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/execute", s.handleExecute)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statusz", s.handleStatusz)
	mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	mux.HandleFunc("GET /metrics", telemetry.ExpositionHandler(telemetry.Default))
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.Endpoint = NewEndpoint(mux)
	return s
}

// Endpoint is the bind-and-serve lifecycle of an HTTP tier: Listen binds,
// Addr reports, Serve accepts until Shutdown. Server and the cluster router
// embed it, and each wraps Shutdown with its own drain.
type Endpoint struct {
	hs *http.Server
	ln net.Listener
}

// NewEndpoint serves h with a five-second limit on reading request headers.
func NewEndpoint(h http.Handler) Endpoint {
	return Endpoint{hs: &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}}
}

// Handler exposes the mux (httptest-friendly).
func (e *Endpoint) Handler() http.Handler { return e.hs.Handler }

// Listen binds addr (host:port; port 0 picks a free port).
func (e *Endpoint) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen: %w", err)
	}
	e.ln = ln
	return nil
}

// Addr returns the bound address ("" before Listen).
func (e *Endpoint) Addr() string {
	if e.ln == nil {
		return ""
	}
	return e.ln.Addr().String()
}

// Serve accepts connections until Shutdown; it returns nil on a clean
// drain-initiated stop.
func (e *Endpoint) Serve() error {
	if e.ln == nil {
		return errors.New("serve: Serve before Listen")
	}
	err := e.hs.Serve(e.ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown closes the listener and waits, bounded by ctx, for in-flight
// handlers to return.
func (e *Endpoint) Shutdown(ctx context.Context) error { return e.hs.Shutdown(ctx) }

// Shutdown drains gracefully: new requests are refused with 503 +
// Retry-After, queued requests finish their rounds, in-flight handlers
// complete, then the listener closes — all bounded by ctx. The backend
// session is the caller's to close afterwards.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if s.logger != nil {
		s.logger.Info("drain begin", "queued", s.batcher.QueueLen())
	}
	err := s.batcher.Close(ctx)
	if herr := s.Endpoint.Shutdown(ctx); err == nil {
		err = herr
	}
	if s.logger != nil {
		if err != nil {
			s.logger.Error("drain end", "err", err)
		} else {
			s.logger.Info("drain end")
		}
	}
	return err
}

// TraceHeader is the header carrying a request's trace ID, inbound (a
// router tier propagating its own ID) and outbound (the echo).
const TraceHeader = "X-Shmt-Trace-Id"

// TenantHeader names the tenant a request is billed and queued under. The
// router tier keys placement on it and forwards it verbatim; the backend
// maps requests without one to DefaultTenant.
const TenantHeader = "X-Shmt-Tenant"

// A reply's accounting headers, in canonical form like every header name.
const (
	BatchSizeHeader   = "X-Shmt-Batch-Size"
	DegradedHeader    = "X-Shmt-Degraded"
	QuarantinedHeader = "X-Shmt-Quarantined"
)

// SanitizeTenant accepts a tenant name if it is non-empty, at most 64
// bytes, and contains only [A-Za-z0-9._:-] (the trace-ID charset); anything
// else returns "" and the request is queued under DefaultTenant.
func SanitizeTenant(t string) string { return sanitizeToken(t, 64) }

// SanitizeTraceID accepts an inbound trace ID if it is non-empty, at most
// 128 bytes, and contains only [A-Za-z0-9._:-]; anything else returns ""
// (and a fresh ID is generated instead). The router tier applies the same
// rule at cluster admission so one charset governs the whole request path.
func SanitizeTraceID(id string) string { return sanitizeToken(id, 128) }

// sanitizeToken returns s if it is non-empty, at most limit bytes and made of
// [A-Za-z0-9._:-] only, and "" otherwise.
func sanitizeToken(s string, limit int) string {
	if s == "" || len(s) > limit {
		return ""
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == ':', c == '-':
		default:
			return ""
		}
	}
	return s
}

func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	outcome := "error"
	// Announced before the body is read: reading and decoding it is where an
	// arriving request spends its time, and that is the window in which the
	// dispatcher should hold a round open for it. Submit retires the
	// announcement; every path that never reaches Submit releases it.
	arrival := s.batcher.Announce()
	defer arrival.Release()

	tenant := SanitizeTenant(r.Header.Get(TenantHeader))
	tenantLabel := tenant
	if tenantLabel == "" {
		tenantLabel = DefaultTenant
	}
	telemetry.ServeTenantRequests.With(tenantLabel).Inc()
	if tenant != "" {
		w.Header().Set(TenantHeader, tenant)
	}

	// Tracing-only request state. With Config.Tracing off none of this is
	// touched: no trace ID, no clock reads beyond `start`, no allocations.
	var traceID, opName, errMsg string
	var stages telemetry.StageBreakdown
	var startRel float64
	batchSize := 0
	if s.cfg.Tracing {
		if traceID = SanitizeTraceID(r.Header.Get(TraceHeader)); traceID == "" {
			traceID = telemetry.NewTraceID()
		}
		w.Header().Set(TraceHeader, traceID)
		if s.cfg.Spans != nil {
			startRel = s.cfg.Spans.Now()
		}
	}

	defer func() {
		telemetry.ServeRequests.With(outcome).Inc()
		total := time.Since(start).Seconds()
		if !s.cfg.Tracing {
			telemetry.ServeRequestSeconds.Observe(total)
		} else {
			telemetry.ServeRequestSeconds.ObserveExemplar(total, traceID)
			if s.cfg.Spans != nil {
				s.cfg.Spans.RecordSpan(telemetry.Span{
					Name: "request " + opName, Clock: telemetry.ClockWall,
					Start: startRel, End: startRel + total,
					TraceID: traceID, Root: true,
				})
			}
			if s.flight != nil {
				s.flight.Record(telemetry.RequestTrace{
					TraceID: traceID, Op: opName, Tenant: tenantLabel, Status: outcome,
					BatchSize: batchSize, Start: start,
					TotalSeconds: total, Stages: stages, Error: errMsg,
				})
			}
		}
		if s.logger != nil {
			s.logger.LogAttrs(r.Context(), OutcomeLevel(outcome), "request",
				slog.String("trace_id", traceID),
				slog.String("op", opName),
				slog.String("tenant", tenantLabel),
				slog.String("outcome", outcome),
				slog.Int("batch_size", batchSize),
				slog.Float64("total_ms", total*1e3),
				slog.Float64("decode_ms", stages.Decode*1e3),
				slog.Float64("queue_wait_ms", stages.QueueWait*1e3),
				slog.Float64("batch_linger_ms", stages.BatchLinger*1e3),
				slog.Float64("plan_ms", stages.Plan*1e3),
				slog.Float64("quantize_transfer_ms", stages.Transfer*1e3),
				slog.Float64("execute_ms", stages.Execute*1e3),
				slog.Float64("aggregate_ms", stages.Aggregate*1e3),
				slog.Float64("encode_ms", stages.Encode*1e3),
				slog.String("err", errMsg),
			)
		}
	}()

	// fail answers a request that ends without a result.
	fail := func(code int, label, msg string) {
		arrival.Release() // before the reply is written: a round may be waiting
		outcome, errMsg = label, msg
		if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", RetryAfterSeconds(s.cfg.RetryAfter))
		}
		wire.WriteError(w, code, msg)
	}

	req, err := wire.ReadRequest(w, r)
	if err != nil {
		fail(wire.StatusOf(err), "invalid", "bad request body: "+err.Error())
		return
	}
	opName = req.Op
	// Arity and shapes are checked here with the engine's own rule: a VOP
	// the engine would refuse must fail alone, not take down the batch round
	// (other tenants' requests included) it would have been coalesced into.
	v, err := req.VOP()
	if err != nil {
		req.Release()
		fail(http.StatusBadRequest, "invalid", err.Error())
		return
	}
	// The request's tensors — decoded inputs, and the output the engine is
	// about to fill — return to the free list on every exit where nothing can
	// still be reading them: the round has answered, or the request never
	// joined one. A wait that ctx ended may have left it queued or mid-round,
	// so those are left to the collector (DESIGN.md §11 has the table).
	var dst *tensor.Matrix
	if !v.Op.IsReduction() {
		dst = tensor.Recycled(v.OutputShape())
	}
	abandoned := false
	defer func() {
		if !abandoned {
			if s.onRelease != nil {
				s.onRelease(v.Inputs, dst)
			}
			req.Release()
			tensor.Recycle(dst)
		}
	}()
	if s.cfg.Tracing {
		stages.Decode = time.Since(start).Seconds()
	}

	timeout := wire.Timeout(req.TimeoutMs, s.cfg.DefaultTimeout)
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// A deadline tighter than CriticalDeadline translates into QAWS
	// criticality pressure: the engine routes more of the request's
	// partitions to the most accurate devices so it doesn't pay the NPU
	// quality/repair tax while the clock runs out.
	pressure := 0.0
	if cd := s.cfg.CriticalDeadline; cd > 0 && timeout < cd {
		pressure = 1 - float64(timeout)/float64(cd)
	}

	res, err := arrival.Submit(ctx, shmt.BatchRequest{
		Op: v.Op, Inputs: v.Inputs, Attrs: req.Attrs, Dst: dst,
		TraceID: traceID, Tenant: tenantLabel, DeadlinePressure: pressure,
	})
	abandoned = errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
	switch {
	case err == nil:
	case errors.Is(err, ErrQueueFull):
		fail(http.StatusTooManyRequests, "shed", err.Error())
		return
	case errors.Is(err, ErrDraining), errors.Is(err, shmt.ErrSessionClosed):
		fail(http.StatusServiceUnavailable, "draining", err.Error())
		return
	case errors.Is(err, context.DeadlineExceeded):
		fail(http.StatusGatewayTimeout, "timeout", err.Error())
		return
	case errors.Is(err, context.Canceled):
		// Client went away; 499 matches the common reverse-proxy convention.
		fail(499, "canceled", err.Error())
		return
	default:
		fail(http.StatusInternalServerError, "error", err.Error())
		return
	}
	outcome = "ok"
	res.Stages.Decode = stages.Decode
	batchSize, stages = res.BatchSize, res.Stages

	w.Header().Set(BatchSizeHeader, strconv.Itoa(res.BatchSize))
	w.Header().Set(DegradedHeader, strconv.FormatBool(res.Degraded != nil))
	if quar := s.be.QuarantinedDevices(); len(quar) > 0 {
		w.Header().Set(QuarantinedHeader, strings.Join(quar, ","))
	}
	resp := wire.Response{
		HLOPs:           res.Report.HLOPs,
		MakespanSeconds: res.Report.Makespan,
		BatchSize:       res.BatchSize,
		Degraded:        res.Degraded,
	}
	if out := res.Report.Output; out != nil {
		resp.Output = wire.FromTensor(out)
	}
	var encodeStart time.Time
	if s.cfg.Tracing {
		encodeStart = time.Now()
		resp.Trace = &wire.Trace{
			TraceID:          traceID,
			Tenant:           tenantLabel,
			TotalSeconds:     encodeStart.Sub(start).Seconds(),
			Stages:           stages,
			DeadlinePressure: pressure,
			CriticalHLOPs:    res.Report.CriticalHLOPs,
			DeviceHLOPs:      res.Report.DeviceHLOPs,
			EncodeStart:      encodeStart,
		}
	}
	// A result JSON cannot carry (NaN, ±Inf) has been answered 422.
	if err := wire.WriteResponse(w, req.Op, &resp); err != nil {
		outcome, errMsg = "invalid", err.Error()
	}
	if s.cfg.Tracing {
		stages.Encode = time.Since(encodeStart).Seconds()
	}
}

// OutcomeLevel maps a request outcome to its log severity on both tiers:
// answered requests and client-side endings stay informational, refusals and
// expired deadlines warn, hard failures error.
func OutcomeLevel(outcome string) slog.Level {
	switch outcome {
	case "ok", "failover_ok", "canceled", "invalid":
		return slog.LevelInfo
	case "shed", "draining", "timeout", "unavailable":
		return slog.LevelWarn
	default:
		return slog.LevelError
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", RetryAfterSeconds(s.cfg.RetryAfter))
		wire.WriteJSON(w, http.StatusServiceUnavailable, healthResponse{Status: "draining"})
		return
	}
	if quar := s.be.QuarantinedDevices(); len(quar) > 0 {
		// Still serving (work reroutes around open breakers), so the status
		// stays 200 — load balancers should keep routing — but the body and
		// header flag the degradation for operators and smart clients.
		w.Header().Set(QuarantinedHeader, strings.Join(quar, ","))
		wire.WriteJSON(w, http.StatusOK, healthResponse{Status: "degraded", Quarantined: quar})
		return
	}
	wire.WriteJSON(w, http.StatusOK, healthResponse{Status: "ok"})
}

// RetryAfterSeconds renders a Retry-After hint as whole seconds, rounding
// up with a floor of 1 so sub-second hints never advertise "0". Both the
// backend and the router tier use it, so the hint can't drift between
// tiers.
func RetryAfterSeconds(d time.Duration) string {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}
