// Command shmtrouterd fronts a fleet of shmtserved backends: it shards
// incoming VOP requests across the cluster by consistent hashing on
// (tenant, op, shape) with bounded-load rebalancing, fails requests over to
// ring replicas when a backend dies, quarantines repeat offenders behind
// per-backend circuit breakers (periodic /healthz probes re-admit them), and
// scatter-gathers very large eligible VOPs across several backends at once.
//
// Usage:
//
//	shmtrouterd -addr :8090 -backends 127.0.0.1:8080,127.0.0.1:8081
//	shmtrouterd -addr 127.0.0.1:0 -breaker-threshold 3 -breaker-cooldown 1s
//	shmtrouterd -scatter-threshold 2097152 -max-fanout 4
//
// Backends may also self-register at runtime:
//
//	curl -s localhost:8090/v1/register -d '{"addr":"127.0.0.1:8082"}'
//
// (shmtserved does this automatically when started with -register.)
//
// Endpoints: POST /v1/execute (proxied or scattered), POST /v1/register,
// GET /healthz ("degraded" while any backend breaker is open, "unavailable"
// with a 503 when none are healthy, "draining" during shutdown), GET
// /metrics (Prometheus, shmt_router_*), GET /statusz (backend and breaker
// snapshot). Responses carry X-SHMT-Trace-Id and X-SHMT-Backend (or
// X-SHMT-Scatter for scattered requests). SIGTERM/SIGINT drain gracefully:
// new work is refused with 503 + Retry-After, in-flight proxies finish, then
// the listener closes.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"shmt/internal/cluster"
	"shmt/internal/serve"
	"shmt/internal/telemetry"
)

// tenantLimitFlags parses repeatable -tenant-limit name:max-inflight values
// into the router's per-tenant concurrency caps. The limit is the field after
// the last ':', because a tenant name may itself contain ':'.
type tenantLimitFlags struct {
	m map[string]int
}

func (t *tenantLimitFlags) String() string {
	parts := make([]string, 0, len(t.m))
	for name, limit := range t.m {
		parts = append(parts, fmt.Sprintf("%s:%d", name, limit))
	}
	return strings.Join(parts, ",")
}

func (t *tenantLimitFlags) Set(v string) error {
	i := strings.LastIndexByte(v, ':')
	if i < 0 {
		return fmt.Errorf("want name:max-inflight, got %q", v)
	}
	name, lim := v[:i], v[i+1:]
	if serve.SanitizeTenant(name) == "" {
		return fmt.Errorf("bad tenant name %q (want [A-Za-z0-9._:-], <= 64 bytes)", name)
	}
	n, err := strconv.Atoi(lim)
	if err != nil || n < 1 {
		return fmt.Errorf("bad max-inflight in %q (want integer >= 1)", v)
	}
	if t.m == nil {
		t.m = map[string]int{}
	}
	t.m[name] = n
	return nil
}

func main() {
	var (
		addr         = flag.String("addr", ":8090", "listen address (host:port; port 0 picks a free port)")
		backends     = flag.String("backends", "", "comma-separated seed backends (host:port); more may register via /v1/register")
		backendTO    = flag.Duration("backend-timeout", 30*time.Second, "per-backend round-trip bound")
		probeEvery   = flag.Duration("probe-interval", 500*time.Millisecond, "backend health-probe cadence")
		probeTO      = flag.Duration("probe-timeout", 2*time.Second, "health-probe round-trip bound")
		brThreshold  = flag.Int("breaker-threshold", 3, "consecutive failures that open a backend's breaker")
		brCooldown   = flag.Duration("breaker-cooldown", time.Second, "initial quarantine before the first re-admission probe")
		scatterElems = flag.Int("scatter-threshold", 1<<21, "first-input element count at which eligible VOPs scatter across backends (negative disables)")
		maxFanout    = flag.Int("max-fanout", 4, "max partitions per scattered VOP")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown bound after SIGTERM")
		retryAfter   = flag.Duration("retry-after", time.Second, "Retry-After hint on 503 responses")
		logFormat    = flag.String("log-format", "text", "structured log format: text or json")
		logLevel     = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	)
	var tenantLimits tenantLimitFlags
	flag.Var(&tenantLimits, "tenant-limit", "per-tenant in-flight cap as name:max-inflight; repeatable (over-cap requests answer 429)")
	flag.Parse()

	// The router has no shmt.Session to flip the instrumentation gate the way
	// shmtserved does; /metrics is part of its contract, so enable it here.
	telemetry.Enable()

	logger, err := telemetry.NewLogger(*logFormat, *logLevel)
	if err != nil {
		fatal(err)
	}

	var seeds []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			seeds = append(seeds, b)
		}
	}

	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Pool: cluster.PoolConfig{
			ProbeInterval: *probeEvery,
			ProbeTimeout:  *probeTO,
			Breaker: cluster.BreakerConfig{
				Threshold: *brThreshold,
				Cooldown:  *brCooldown,
			},
		},
		Seeds:            seeds,
		BackendTimeout:   *backendTO,
		ScatterThreshold: *scatterElems,
		MaxFanout:        *maxFanout,
		RetryAfter:       *retryAfter,
		TenantLimits:     tenantLimits.m,
		Logger:           logger,
	})
	if err != nil {
		fatal(err)
	}
	if err := rt.Listen(*addr); err != nil {
		fatal(err)
	}
	logger.Info("listening",
		"addr", rt.Addr(),
		"backends", len(seeds),
		"scatter_threshold", *scatterElems,
		"max_fanout", *maxFanout,
	)
	fmt.Printf("shmtrouterd listening on http://%s (backends %d)\n", rt.Addr(), len(seeds))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- rt.Serve() }()

	select {
	case err := <-errc:
		if err != nil {
			fatal(err)
		}
	case <-ctx.Done():
		stop()
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := rt.Shutdown(dctx); err != nil {
			logger.Error("drain failed", "err", err)
			os.Exit(1)
		}
	}
	logger.Info("stopped")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "shmtrouterd:", err)
	os.Exit(1)
}
