// Package telemetry is the runtime's always-compiled instrumentation core.
// It provides atomic counters, gauges and fixed-bucket histograms behind a
// process-wide enable gate, a span recorder that captures both the virtual
// device timeline and wall-clock host activity, and three exporters: Chrome
// trace-event JSON (loadable in Perfetto), Prometheus text exposition over an
// optional HTTP listener, and a structured JSON run report.
//
// Design rules, in priority order:
//
//  1. Near-zero overhead when disabled. Every hot-path operation first loads
//     one atomic bool; when telemetry is off that load is the entire cost and
//     nothing allocates. The engine, scheduler, queues, arena and worker pool
//     are instrumented unconditionally — there is no build tag.
//  2. No hot-path allocations when enabled. Counters and gauges are plain
//     atomics; histograms index a fixed bucket array; label lookups
//     (CounterVec.With) are resolved once at setup time and the returned
//     pointer is held across the hot loop.
//  3. Metrics are process-global and cumulative (the Prometheus model); a
//     Recorder snapshots the registry when attached so per-run reports are
//     deltas, and collects that run's spans.
package telemetry

import (
	"fmt"
	"log/slog"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// on is the process-wide enable gate. All instrumentation is inert until
// Enable; the single atomic load is the entire disabled-path cost.
var on atomic.Bool

// Enable turns instrumentation on process-wide.
func Enable() { on.Store(true) }

// Disable turns instrumentation off. Metric values are retained.
func Disable() { on.Store(false) }

// On reports whether instrumentation is enabled. Call sites with non-trivial
// setup (timestamps, per-item bookkeeping) gate on this; simple counter
// increments just call Inc/Add, which check internally.
func On() bool { return on.Load() }

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one when telemetry is enabled.
func (c *Counter) Inc() {
	if on.Load() {
		c.v.Add(1)
	}
}

// Add adds n when telemetry is enabled.
func (c *Counter) Add(n int64) {
	if on.Load() {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down (queue depth, live bytes).
type Gauge struct {
	v atomic.Int64
}

// Set stores v when telemetry is enabled.
func (g *Gauge) Set(v int64) {
	if on.Load() {
		g.v.Store(v)
	}
}

// Add adds delta when telemetry is enabled.
func (g *Gauge) Add(delta int64) {
	if on.Load() {
		g.v.Add(delta)
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Exemplar ties a sampled observation to the request trace that produced it,
// OpenMetrics-style: the OpenMetrics exposition (negotiated via Accept;
// see WriteOpenMetrics) renders it as a bucket annotation so a dashboard can
// jump from a latency bucket straight to /debug/requests. The classic 0.0.4
// exposition never carries it — the format has no exemplar syntax.
type Exemplar struct {
	TraceID string
	Value   float64
}

// Histogram counts observations into fixed upper-bound buckets
// (Prometheus-style cumulative export; storage is per-bucket).
type Histogram struct {
	bounds    []float64 // ascending upper bounds; implicit +Inf bucket follows
	buckets   []atomic.Int64
	count     atomic.Int64
	sumBits   atomic.Uint64 // float64 bits, CAS-updated
	exemplars []atomic.Pointer[Exemplar]
}

// Observe records v when telemetry is enabled.
func (h *Histogram) Observe(v float64) {
	if !on.Load() {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveExemplar records v and attaches an exemplar carrying traceID to the
// bucket v lands in (last write wins). The Exemplar allocation happens only
// on the enabled path; disabled, this is one atomic load like Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if !on.Load() {
		return
	}
	h.Observe(v)
	if h.exemplars != nil && traceID != "" {
		h.exemplars[sort.SearchFloat64s(h.bounds, v)].Store(&Exemplar{TraceID: traceID, Value: v})
	}
}

// exemplar returns bucket i's latest exemplar, or nil.
func (h *Histogram) exemplar(i int) *Exemplar {
	if h.exemplars == nil {
		return nil
	}
	return h.exemplars[i].Load()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// ExpBuckets returns n exponential bucket bounds starting at start and
// multiplying by factor — the standard latency/size bucket ladder.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n < 1 || start <= 0 || factor <= 1 {
		return []float64{start}
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// metricKind discriminates exposition rendering.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "counter"
	}
}

// child is one labelled instance within a family. The exposition series keys
// are rendered once at creation so snapshot/exposition walks never format
// strings — a Recorder re-based per request would otherwise pay ~100
// transient keys per Snapshot.
type child struct {
	labelValue string // empty for unlabelled metrics
	key        string // exposition series key: name or name{label="value"}
	keyCount   string // histogram-only: name_count series key
	keySum     string // histogram-only: name_sum series key
	counter    *Counter
	gauge      *Gauge
	hist       *Histogram
}

// family is one named metric and its labelled children.
type family struct {
	name     string
	help     string
	kind     metricKind
	labelKey string // empty for unlabelled metrics
	bounds   []float64

	mu       sync.Mutex
	children []*child
	index    map[string]*child
}

func (f *family) get(labelValue string) *child {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.index[labelValue]; ok {
		return c
	}
	c := &child{labelValue: labelValue, key: seriesKey(f.name, f.labelKey, labelValue)}
	switch f.kind {
	case kindCounter:
		c.counter = &Counter{}
	case kindGauge:
		c.gauge = &Gauge{}
	case kindHistogram:
		c.keyCount = seriesKey(f.name+"_count", f.labelKey, labelValue)
		c.keySum = seriesKey(f.name+"_sum", f.labelKey, labelValue)
		c.hist = &Histogram{
			bounds:    f.bounds,
			buckets:   make([]atomic.Int64, len(f.bounds)+1),
			exemplars: make([]atomic.Pointer[Exemplar], len(f.bounds)+1),
		}
	}
	f.index[labelValue] = c
	f.children = append(f.children, c)
	sort.Slice(f.children, func(a, b int) bool { return f.children[a].labelValue < f.children[b].labelValue })
	return c
}

// Registry holds metric families for exposition and snapshots. The package
// Default registry backs every standard shmt_* metric; tests may build
// private registries for deterministic golden output.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// Default is the process-wide registry all standard metrics register into.
var Default = NewRegistry()

func (r *Registry) register(name, help, labelKey string, kind metricKind, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", name))
	}
	f := &family{name: name, help: help, kind: kind, labelKey: labelKey, bounds: bounds, index: map[string]*child{}}
	r.byName[name] = f
	r.families = append(r.families, f)
	sort.Slice(r.families, func(a, b int) bool { return r.families[a].name < r.families[b].name })
	return f
}

// NewCounter registers an unlabelled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	return r.register(name, help, "", kindCounter, nil).get("").counter
}

// NewGauge registers an unlabelled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	return r.register(name, help, "", kindGauge, nil).get("").gauge
}

// NewHistogram registers an unlabelled histogram with the given ascending
// bucket upper bounds (an implicit +Inf bucket is appended).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	return r.register(name, help, "", kindHistogram, bounds).get("").hist
}

// CounterVec is a counter family with one label dimension.
type CounterVec struct{ f *family }

// With returns the counter for the label value, creating it on first use.
// Resolve once at setup time and hold the pointer across hot loops.
func (v *CounterVec) With(labelValue string) *Counter { return v.f.get(labelValue).counter }

// GaugeVec is a gauge family with one label dimension.
type GaugeVec struct{ f *family }

// With returns the gauge for the label value, creating it on first use.
func (v *GaugeVec) With(labelValue string) *Gauge { return v.f.get(labelValue).gauge }

// HistogramVec is a histogram family with one label dimension.
type HistogramVec struct{ f *family }

// With returns the histogram for the label value, creating it on first use.
func (v *HistogramVec) With(labelValue string) *Histogram { return v.f.get(labelValue).hist }

// NewCounterVec registers a labelled counter family.
func (r *Registry) NewCounterVec(name, help, labelKey string) *CounterVec {
	return &CounterVec{f: r.register(name, help, labelKey, kindCounter, nil)}
}

// NewGaugeVec registers a labelled gauge family.
func (r *Registry) NewGaugeVec(name, help, labelKey string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, labelKey, kindGauge, nil)}
}

// NewHistogramVec registers a labelled histogram family.
func (r *Registry) NewHistogramVec(name, help, labelKey string, bounds []float64) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, labelKey, kindHistogram, bounds)}
}

// Snapshot is a point-in-time reading of every series in a registry, keyed by
// the exposition series name (name, or name{label="value"}; histograms
// contribute _count and _sum series).
type Snapshot map[string]float64

// Snapshot reads every series. It allocates and is meant for report/export
// time, never the hot path.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{}
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		f.mu.Lock()
		children := append([]*child(nil), f.children...)
		f.mu.Unlock()
		for _, c := range children {
			switch f.kind {
			case kindCounter:
				s[c.key] = float64(c.counter.Value())
			case kindGauge:
				s[c.key] = float64(c.gauge.Value())
			case kindHistogram:
				s[c.keyCount] = float64(c.hist.Count())
				s[c.keySum] = c.hist.Sum()
			}
		}
	}
	return s
}

// Delta returns now minus base, keeping only series that changed (or are new).
func (now Snapshot) Delta(base Snapshot) Snapshot {
	d := Snapshot{}
	for k, v := range now {
		if dv := v - base[k]; dv != 0 {
			d[k] = dv
		}
	}
	return d
}

func seriesKey(name, labelKey, labelValue string) string {
	if labelKey == "" {
		return name
	}
	return fmt.Sprintf("%s{%s=%q}", name, labelKey, labelValue)
}

// NewLogger builds a daemon's process logger from its -log-format ("text" or
// "json") and -log-level values. Logs go to stderr so stdout stays clean for
// scripting.
func NewLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}
