package cluster

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"shmt/internal/breaker"
	"shmt/internal/telemetry"
	"shmt/internal/tensor"
)

// loadFactor is the bounded-load ceiling factor c: a backend may hold at
// most ceil(c * total / n) in-flight requests before its keys spill to
// replicas.
const loadFactor = 1.25

// backendCooldownCap bounds a backend breaker's doubled cooldown.
const backendCooldownCap = 30 * time.Second

// PoolConfig tunes the backend pool. Zero values select the defaults noted
// per field.
type PoolConfig struct {
	// Breaker tunes the per-backend circuit breakers.
	Breaker BreakerConfig
	// ProbeInterval is the health-probe cadence (default 500ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /healthz round-trip (default 2s).
	ProbeTimeout time.Duration
}

// BreakerConfig tunes a backend's breaker — internal/breaker's machine, the
// one the engine runs for devices, here on the wall clock. Zero values
// select the defaults. Only a successful /healthz probe closes an open
// breaker, so regular traffic never lands on a node that has not proven
// itself again. Each failed probe doubles the cooldown, up to 30s.
type BreakerConfig struct {
	// Threshold is the consecutive-failure count that opens the breaker
	// (default 3, matching the engine's device breakers).
	Threshold int
	// Cooldown is the initial quarantine before the first re-admission
	// probe (default 1s).
	Cooldown time.Duration
}

// newBreaker resolves the defaults and builds one backend's breaker.
func (c BreakerConfig) newBreaker() *breaker.Breaker {
	if c.Threshold <= 0 {
		c.Threshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Second
	}
	return breaker.New(c.Threshold, c.Cooldown.Seconds(), backendCooldownCap.Seconds())
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	return c
}

// Backend is one registered shmtserved node.
type Backend struct {
	addr string // host:port, the pool map key and ring member name
	base string // "http://host:port"
	br   *breaker.Breaker

	inflight atomic.Int64 // requests currently proxied to this backend
	requests atomic.Int64 // dispatch attempts, lifetime

	mu            sync.Mutex
	lastProbe     time.Time
	lastProbeOK   bool
	lastProbeBody string // healthz status string, for /statusz
	registeredAt  time.Time
}

// Quarantined reports whether the backend's breaker is open.
func (b *Backend) Quarantined() bool { return b.br.Quarantined() }

// BackendStatus is one backend's /statusz row.
type BackendStatus struct {
	Addr          string  `json:"addr"`
	Breaker       string  `json:"breaker"` // closed | open | half-open
	ConsecFails   int     `json:"consecutive_failures,omitempty"`
	Opens         int     `json:"breaker_opens,omitempty"`
	CooldownMs    float64 `json:"cooldown_ms,omitempty"`
	InFlight      int64   `json:"inflight"`
	Requests      int64   `json:"requests"`
	LastProbeOK   bool    `json:"last_probe_ok"`
	LastProbeAgoS float64 `json:"last_probe_ago_seconds,omitempty"`
	LastProbe     string  `json:"last_probe_status,omitempty"`
}

// Pool owns the backend set: registration, the consistent-hash ring, health
// probing, and breaker bookkeeping. All methods are safe for concurrent use.
type Pool struct {
	cfg    PoolConfig
	logger *slog.Logger // nil keeps the pool silent
	client *http.Client // shared by probes and proxied requests
	epoch  time.Time    // the breakers' clock reads seconds since this instant

	mu       sync.RWMutex
	backends map[string]*Backend
	ring     *Ring

	total atomic.Int64 // in-flight requests across all backends

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewPool builds a pool seeded with the given backend addrs (host:port) and
// starts the health prober. Close stops it. logger, when non-nil, receives
// backend lifecycle and breaker events.
func NewPool(cfg PoolConfig, seeds []string, logger *slog.Logger) (*Pool, error) {
	p := &Pool{
		cfg:    cfg.withDefaults(),
		logger: logger,
		// A keep-alive transport sized for a small fleet, dialing as one
		// without a DialContext does, with the zero net.Dialer.
		client: &http.Client{Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				c, err := new(net.Dialer).DialContext(ctx, network, addr)
				if err != nil {
					return nil, err
				}
				return copyConn{c}, nil
			},
			MaxIdleConnsPerHost: 32,
			IdleConnTimeout:     90 * time.Second,
		}},
		epoch:    time.Now(),
		backends: map[string]*Backend{},
		ring:     NewRing(nil, DefaultVnodes),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, s := range seeds {
		if _, err := p.Add(s); err != nil {
			return nil, err
		}
	}
	go p.probeLoop()
	return p, nil
}

// Close stops the health prober.
func (p *Pool) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
}

// now is the breakers' wall clock: monotonic seconds since the pool was built.
func (p *Pool) now() float64 { return time.Since(p.epoch).Seconds() }

// Client returns the pool's shared HTTP client.
func (p *Pool) Client() *http.Client { return p.client }

// Add registers a backend by host:port. Idempotent: re-registering an
// existing backend (a restarted node announcing itself again) is not an
// error and reports added=false.
func (p *Pool) Add(addr string) (added bool, err error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil || host == "" || port == "" {
		return false, fmt.Errorf("cluster: backend addr %q is not host:port: %v", addr, err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.backends[addr]; ok {
		return false, nil
	}
	b := &Backend{
		addr: addr,
		base: "http://" + addr,
		br:   p.cfg.Breaker.newBreaker(),
	}
	b.registeredAt = time.Now()
	p.backends[addr] = b
	p.rebuildRingLocked()
	telemetry.RouterBreakerState.With(addr).Set(int64(breaker.Closed))
	if p.logger != nil {
		p.logger.Info("backend registered", "backend", addr, "fleet", len(p.backends))
	}
	return true, nil
}

// rebuildRingLocked swaps in a fresh ring for the current member set and
// refreshes the fleet gauges. Caller holds p.mu.
func (p *Pool) rebuildRingLocked() {
	members := make([]string, 0, len(p.backends))
	for a := range p.backends {
		members = append(members, a)
	}
	p.ring = NewRing(members, DefaultVnodes)
	p.refreshGaugesLocked()
}

func (p *Pool) refreshGaugesLocked() {
	healthy := 0
	for _, b := range p.backends {
		if !b.br.Quarantined() {
			healthy++
		}
	}
	telemetry.RouterBackends.Set(int64(len(p.backends)))
	telemetry.RouterBackendsHealthy.Set(int64(healthy))
}

// refreshGauges re-derives the fleet gauges (called after breaker events).
func (p *Pool) refreshGauges() {
	p.mu.RLock()
	defer p.mu.RUnlock()
	p.refreshGaugesLocked()
}

// Len returns the registered backend count.
func (p *Pool) Len() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.backends)
}

// Healthy returns the backends whose breaker is not open, in sorted order.
func (p *Pool) Healthy() []*Backend {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]*Backend, 0, len(p.backends))
	for _, b := range p.backends {
		if !b.br.Quarantined() {
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].addr < out[j].addr })
	return out
}

// Quarantined returns the addrs of backends whose breaker is open, sorted.
func (p *Pool) Quarantined() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var out []string
	for a, b := range p.backends {
		if b.br.Quarantined() {
			out = append(out, a)
		}
	}
	sort.Strings(out)
	return out
}

// Statuses returns every backend's /statusz row, sorted by addr.
func (p *Pool) Statuses() []BackendStatus {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]BackendStatus, 0, len(p.backends))
	for _, b := range p.backends {
		state, fails, opens, cooldown := b.br.Snapshot()
		st := BackendStatus{
			Addr:        b.addr,
			Breaker:     state.String(),
			ConsecFails: fails,
			Opens:       opens,
			CooldownMs:  cooldown * 1e3,
			InFlight:    b.inflight.Load(),
			Requests:    b.requests.Load(),
		}
		b.mu.Lock()
		st.LastProbeOK = b.lastProbeOK
		st.LastProbe = b.lastProbeBody
		if !b.lastProbe.IsZero() {
			st.LastProbeAgoS = time.Since(b.lastProbe).Seconds()
		}
		b.mu.Unlock()
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Route is the order a request for k tries backends in, from one ring walk: the
// bounded-load pick, then the key's other backends in ring order, healthy or
// not. rehashed: the pick is not the primary; no order: no healthy backend.
func (p *Pool) Route(k Key) (order []*Backend, rehashed bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	names := p.ring.Lookup(k, p.ring.Len())
	_, pos := pickBounded(names, loadFactor,
		func(n string) bool { return !p.backends[n].br.Quarantined() },
		func(n string) int64 { return p.backends[n].inflight.Load() },
		p.total.Load())
	if pos < 0 {
		return nil, false
	}
	order = append(make([]*Backend, 0, len(names)), p.backends[names[pos]])
	for i, n := range names {
		if i != pos {
			order = append(order, p.backends[n])
		}
	}
	return order, pos > 0
}

// Pick is the first backend of Route.
func (p *Pool) Pick(k Key) (b *Backend, rehashed bool) {
	order, rehashed := p.Route(k)
	if len(order) == 0 {
		return nil, false
	}
	return order[0], rehashed
}

// Acquire marks one request in flight on b; the returned release must be
// called exactly once when the dispatch attempt ends.
func (p *Pool) Acquire(b *Backend) (release func()) {
	b.inflight.Add(1)
	b.requests.Add(1)
	p.total.Add(1)
	telemetry.RouterBackendRequests.With(b.addr).Inc()
	var once sync.Once
	return func() {
		once.Do(func() {
			b.inflight.Add(-1)
			p.total.Add(-1)
		})
	}
}

// NoteFailure records a failed dispatch attempt against b's breaker and
// reports whether the breaker opened (the backend is now quarantined and its
// keys rehash to replicas).
func (p *Pool) NoteFailure(b *Backend) (opened bool) {
	telemetry.RouterBackendErrors.With(b.addr).Inc()
	_, opened, _ = b.br.OnFailure(p.now())
	if opened {
		p.noteOpened(b)
		if p.logger != nil {
			p.logger.Warn("backend breaker open", "backend", b.addr)
		}
	}
	return opened
}

func (p *Pool) noteOpened(b *Backend) {
	telemetry.RouterBreakerOpens.With(b.addr).Inc()
	telemetry.RouterBreakerState.With(b.addr).Set(int64(breaker.Open))
	p.refreshGauges()
}

// NoteSuccess records a successful dispatch against b's breaker.
func (p *Pool) NoteSuccess(b *Backend) {
	if b.br.OnSuccess() {
		p.noteReadmitted(b)
	}
}

func (p *Pool) noteReadmitted(b *Backend) {
	telemetry.RouterReadmissions.Inc()
	telemetry.RouterBreakerState.With(b.addr).Set(int64(breaker.Closed))
	p.refreshGauges()
	if p.logger != nil {
		p.logger.Info("backend readmitted", "backend", b.addr)
	}
}

// probeLoop periodically probes every backend's /healthz: closed breakers
// for failure detection, open breakers (once their cooldown elapses) for
// half-open re-admission.
func (p *Pool) probeLoop() {
	defer close(p.done)
	t := time.NewTicker(p.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
		}
		p.mu.RLock()
		bs := make([]*Backend, 0, len(p.backends))
		for _, b := range p.backends {
			bs = append(bs, b)
		}
		p.mu.RUnlock()
		for _, b := range bs {
			p.probe(b)
		}
	}
}

// probe runs one health check against b and feeds the result to its
// breaker. Quarantined backends are only probed after their cooldown, and
// through the half-open state, so re-admission always has a successful
// probe behind it.
func (p *Pool) probe(b *Backend) {
	now := time.Now()
	if b.br.Quarantined() {
		if !b.br.ProbeDue(p.now()) || !b.br.BeginProbe() {
			return
		}
		telemetry.RouterBreakerState.With(b.addr).Set(int64(breaker.HalfOpen))
	}
	ok, status := p.checkHealth(b)
	b.mu.Lock()
	b.lastProbe, b.lastProbeOK, b.lastProbeBody = now, ok, status
	b.mu.Unlock()
	if ok {
		telemetry.RouterProbes.With("ok").Inc()
		if b.br.OnSuccess() {
			p.noteReadmitted(b)
		}
		return
	}
	telemetry.RouterProbes.With("fail").Inc()
	if _, opened, _ := b.br.OnFailure(p.now()); opened {
		p.noteOpened(b)
		if p.logger != nil {
			p.logger.Warn("backend breaker open", "backend", b.addr, "probe", status)
		}
	}
}

// checkHealth GETs the backend's /healthz. 2xx — "ok" or "degraded", both
// still serving — counts healthy; "draining" (503), other statuses and
// transport errors count as failures.
func (p *Pool) checkHealth(b *Backend) (ok bool, status string) {
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/healthz", nil)
	if err != nil {
		return false, err.Error()
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return false, err.Error()
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return false, fmt.Sprintf("http %d", resp.StatusCode)
	}
	return true, "ok"
}

// copyBuffers recycles the 32 KiB buffers the router copies bodies through, to
// backends (copyConn) and back to clients (relayResponse).
var copyBuffers tensor.FreeList[*[32 << 10]byte]

// copyThrough is io.Copy through a recycled buffer, with dst's ReadFrom
// hidden: net's and net/http's allocate a buffer per call.
func copyThrough(dst io.Writer, src io.Reader) (int64, error) {
	buf, capacity := copyBuffers.Get(32 << 10)
	if buf == nil {
		buf = copyBuffers.Miss(capacity, func(int) *[32 << 10]byte { return new([32 << 10]byte) })
	}
	defer copyBuffers.Put(buf, capacity)
	return io.CopyBuffer(struct{ io.Writer }{dst}, src, buf[:])
}

// copyConn is a backend connection whose ReadFrom, which the transport calls
// to send a request body, copies through a recycled buffer.
type copyConn struct{ net.Conn }

func (c copyConn) ReadFrom(r io.Reader) (int64, error) { return copyThrough(c.Conn, r) }
