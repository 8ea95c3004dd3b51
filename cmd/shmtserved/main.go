// Command shmtserved serves a shmt.Session over HTTP/JSON: concurrent VOP
// requests are admitted into a bounded queue, coalesced by the dynamic
// micro-batcher and executed as ExecuteBatch rounds, so simultaneous clients
// share one scheduling round the way §5.6's oversubscribed multi-tenant
// batches do. The batcher takes whatever is queued, up to -max-batch, and
// goes: a lone request never waits. A round is held open only while another
// request is known to be arriving (its handler has been entered and its body
// is still being read), and for at most -max-linger.
//
// Usage:
//
//	shmtserved -addr :8080
//	shmtserved -addr 127.0.0.1:0 -max-batch 8 -max-linger 5ms -policy work-stealing
//	shmtserved -chaos "tpu:die=5" -chaos-seed 42
//	shmtserved -log-format json -slow-slo 50ms -trace-out serve.trace.json
//
//	curl -s localhost:8080/v1/execute -d '{"op":"add","inputs":[
//	  {"rows":2,"cols":2,"data":[1,2,3,4]},
//	  {"rows":2,"cols":2,"data":[5,6,7,8]}]}'
//
// Endpoints: POST /v1/execute, GET /healthz (reports "degraded" while any
// device breaker is open, "draining" with a 503 during shutdown), GET
// /metrics (Prometheus), GET /statusz (live process snapshot, JSON or
// ?format=html), GET /debug/requests (flight-recorder dump; ?slow=1 for SLO
// violations only), and — with -pprof — net/http/pprof under /debug/pprof/.
// Responses carry X-SHMT-Batch-Size, X-SHMT-Degraded, X-SHMT-Trace-Id and,
// when breakers are open, X-SHMT-Quarantined headers. A full admission queue
// answers 429 with Retry-After instead of queueing without bound.
// SIGTERM/SIGINT drain gracefully: new work is refused, queued rounds
// finish, then the session closes. The host worker pool's width is set only
// by the SHMT_WORKERS environment variable (default GOMAXPROCS).
package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"shmt"
	"shmt/internal/serve"
	"shmt/internal/telemetry"
)

// tenantFlags parses repeatable -tenant name:weight[:queue-depth] values
// into the serving layer's per-tenant QoS config. The numbers are read from
// the right, because a tenant name may itself contain ':': with three or more
// fields the last two are weight and queue depth, so a name containing ':'
// must spell out the queue depth.
type tenantFlags struct {
	m map[string]serve.TenantConfig
}

func (t *tenantFlags) String() string {
	parts := make([]string, 0, len(t.m))
	for name, tc := range t.m {
		parts = append(parts, fmt.Sprintf("%s:%d:%d", name, tc.Weight, tc.QueueDepth))
	}
	return strings.Join(parts, ",")
}

func (t *tenantFlags) Set(v string) error {
	fields := strings.Split(v, ":")
	if len(fields) < 2 {
		return fmt.Errorf("want name:weight[:queue-depth], got %q", v)
	}
	nums := fields[1:] // name:weight
	if len(fields) > 2 {
		nums = fields[len(fields)-2:] // name:weight:queue-depth
	}
	name := strings.Join(fields[:len(fields)-len(nums)], ":")
	if serve.SanitizeTenant(name) == "" {
		return fmt.Errorf("bad tenant name %q (want [A-Za-z0-9._:-], <= 64 bytes)", name)
	}
	tc := serve.TenantConfig{}
	w, err := strconv.Atoi(nums[0])
	if err != nil || w < 1 {
		return fmt.Errorf("bad weight in %q (want integer >= 1; a name containing ':' must spell out the queue depth)", v)
	}
	tc.Weight = w
	if len(nums) == 2 {
		d, err := strconv.Atoi(nums[1])
		if err != nil || d < 1 {
			return fmt.Errorf("bad queue-depth in %q (want integer >= 1)", v)
		}
		tc.QueueDepth = d
	}
	if t.m == nil {
		t.m = map[string]serve.TenantConfig{}
	}
	t.m[name] = tc
	return nil
}

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		policy       = flag.String("policy", string(shmt.DefaultPolicy), "scheduling policy")
		partitions   = flag.Int("partitions", 64, "HLOPs per VOP")
		seed         = flag.Int64("seed", 1, "session seed")
		maxBatch     = flag.Int("max-batch", 16, "max requests coalesced per micro-batch round")
		maxLinger    = flag.Duration("max-linger", 2*time.Millisecond, "ceiling on how long a round waits for a request whose body is still arriving; an idle server never waits")
		queueDepth   = flag.Int("queue-depth", 0, "admission queue bound (0 = 4x max-batch); overflow answers 429")
		reqTimeout   = flag.Duration("request-timeout", 30*time.Second, "default per-request deadline (overridable via timeout_ms)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown bound after SIGTERM")
		retryAfter   = flag.Duration("retry-after", time.Second, "Retry-After hint on 429/503 responses")
		chaosSpec    = flag.String("chaos", "", `fault-injection plan, e.g. "tpu:die=5;gpu:transient=0.2"`)
		chaosSeed    = flag.Int64("chaos-seed", 0, "fault-schedule seed (default: -seed)")
		tracing      = flag.Bool("tracing", true, "request-scoped tracing: trace IDs, stage breakdowns, flight recorder, request lanes")
		flightSize   = flag.Int("flight-recorder", telemetry.DefaultFlightRecorderSize, "flight-recorder ring capacity (traces retained)")
		slowSLO      = flag.Duration("slow-slo", 100*time.Millisecond, "latency SLO; slower requests are retained in the flight recorder's slow ring (0 disables)")
		logFormat    = flag.String("log-format", "text", "structured log format: text or json")
		logLevel     = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		pprofOn      = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (opt-in)")
		traceOut     = flag.String("trace-out", "", "write the session's Perfetto trace here after drain")
		registerURL  = flag.String("register", "", "router base URL to self-register with (e.g. http://127.0.0.1:8090); retried in the background until acknowledged")
		advertise    = flag.String("advertise", "", "addr to announce when registering (default: the bound addr, with unspecified hosts rewritten to 127.0.0.1)")
		criticalDL   = flag.Duration("critical-deadline", 0, "deadlines tighter than this raise the request's QAWS criticality so it keeps high-accuracy devices (0 disables)")
	)
	var tenants tenantFlags
	flag.Var(&tenants, "tenant", "per-tenant QoS as name:weight[:queue-depth]; repeatable (unlisted tenants get weight 1 and the global queue depth). A name containing ':' must spell out the queue depth: team:a:2:8")
	flag.Parse()

	logger, err := telemetry.NewLogger(*logFormat, *logLevel)
	if err != nil {
		fatal(err)
	}

	cfg := shmt.Config{
		Policy:           shmt.PolicyName(*policy),
		TargetPartitions: *partitions,
		Seed:             *seed,
		Telemetry:        shmt.Telemetry{Enabled: true},
	}
	if *chaosSpec != "" {
		plans, err := shmt.ParseChaosSpec(*chaosSpec, *chaosSeed)
		if err != nil {
			fatal(err)
		}
		cfg.Chaos = plans
		logger.Info("chaos enabled", "spec", *chaosSpec, "seed", cmp.Or(*chaosSeed, *seed))
	}
	sess, err := shmt.NewSession(cfg)
	if err != nil {
		fatal(err)
	}
	defer sess.Close()
	sess.OnBreakerEvent(func(device, event string) {
		switch event {
		case "open":
			logger.Warn("breaker open", "device", device)
		default:
			logger.Info("breaker "+event, "device", device)
		}
	})

	srv := serve.New(sess, serve.Config{
		MaxBatch:           *maxBatch,
		MaxLinger:          *maxLinger,
		QueueDepth:         *queueDepth,
		Tenants:            tenants.m,
		DefaultTimeout:     *reqTimeout,
		CriticalDeadline:   *criticalDL,
		RetryAfter:         *retryAfter,
		Spans:              sess.TelemetryRecorder(),
		Tracing:            *tracing,
		FlightRecorderSize: *flightSize,
		SlowSLO:            *slowSLO,
		Logger:             logger,
		EnablePprof:        *pprofOn,
	})
	if err := srv.Listen(*addr); err != nil {
		fatal(err)
	}
	logger.Info("listening",
		"addr", srv.Addr(),
		"policy", sess.PolicyName(),
		"devices", fmt.Sprint(sess.Devices()),
		"max_batch", *maxBatch,
		"max_linger", maxLinger.String(),
		"tracing", *tracing,
		"slow_slo", slowSLO.String(),
		"pprof", *pprofOn,
	)
	fmt.Printf("shmtserved listening on http://%s (policy %s, max-batch %d, linger %s)\n",
		srv.Addr(), sess.PolicyName(), *maxBatch, *maxLinger)
	if *registerURL != "" {
		go register(*registerURL, advertiseAddr(*advertise, srv.Addr()), logger)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve() }()

	select {
	case err := <-errc:
		if err != nil {
			fatal(err)
		}
	case <-ctx.Done():
		stop()
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(dctx); err != nil {
			logger.Error("drain failed", "err", err)
			os.Exit(1)
		}
	}
	if *traceOut != "" {
		if err := writeTrace(sess, *traceOut); err != nil {
			logger.Error("trace write failed", "path", *traceOut, "err", err)
		} else {
			logger.Info("trace written", "path", *traceOut)
		}
	}
	if err := sess.Close(); err != nil {
		fatal(err)
	}
	logger.Info("stopped")
}

// advertiseAddr picks the host:port to announce to the router: the explicit
// -advertise value when given, otherwise the bound addr with unspecified
// hosts (":8080", "0.0.0.0", "[::]") rewritten to 127.0.0.1 so the router
// registers a dialable endpoint on single-host clusters.
func advertiseAddr(explicit, bound string) string {
	if explicit != "" {
		return explicit
	}
	host, port, err := net.SplitHostPort(bound)
	if err != nil {
		return bound
	}
	if host == "" || host == "0.0.0.0" || host == "::" {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}

// register announces addr to the router, retrying with backoff until the
// router acknowledges — the router may simply not be up yet, and a serving
// backend with no router is still useful, so registration never blocks or
// fails startup.
func register(routerURL, addr string, logger *slog.Logger) {
	body, _ := json.Marshal(map[string]string{"addr": addr})
	url := strings.TrimSuffix(routerURL, "/") + "/v1/register"
	backoff := 250 * time.Millisecond
	for {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusOK {
				logger.Info("registered with router", "router", routerURL, "advertised", addr)
				return
			}
			logger.Warn("router refused registration", "router", routerURL, "status", code)
			if code == http.StatusBadRequest {
				return // malformed advertisement will not improve with retries
			}
		} else {
			logger.Debug("router not reachable yet", "router", routerURL, "err", err)
		}
		time.Sleep(backoff)
		if backoff < 5*time.Second {
			backoff *= 2
		}
	}
}

func writeTrace(sess *shmt.Session, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sess.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "shmtserved:", err)
	os.Exit(1)
}
