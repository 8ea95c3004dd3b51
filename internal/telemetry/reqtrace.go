package telemetry

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Request-scoped tracing: one RequestTrace follows a serving-layer request
// end to end — admission, micro-batch gather, planning, execution,
// aggregation — and the FlightRecorder keeps a bounded in-memory window of
// them (the last N, plus every trace slower than the SLO threshold) for
// post-hoc "why was THIS request slow?" introspection via /debug/requests.
//
// Everything here is enabled-path only: the serving layer constructs traces
// only when tracing is configured, so the disabled request path stays
// allocation-free like the rest of the package.

// StageBreakdown attributes one request's wall-clock latency to the serving
// pipeline's stages. All values are seconds; a stage the request never
// entered is zero. The stages are disjoint and consecutive, so their sum
// approximates the request's total latency (the remainder is goroutine
// wakeup and the HTTP stack).
type StageBreakdown struct {
	// Decode is admission: reading the request body off the socket, decoding
	// it and validating the VOP.
	Decode float64 `json:"decode_seconds"`
	// QueueWait is time spent in the admission queue before the dispatcher
	// picked the request up.
	QueueWait float64 `json:"queue_wait_seconds"`
	// BatchLinger is time spent gathered into a round before it was flushed:
	// popping the rest of the backlog, any wait for a request announced but
	// not yet queued (at most MaxLinger), and dispatch overhead.
	BatchLinger float64 `json:"batch_linger_seconds"`
	// Plan is the round's partition + assignment (or plan-cache replay) time.
	Plan float64 `json:"plan_seconds"`
	// Transfer is the round's quantize/transfer staging time: output
	// allocation and view binding before execution.
	Transfer float64 `json:"quantize_transfer_seconds"`
	// Execute is the round's engine execution time.
	Execute float64 `json:"execute_seconds"`
	// Aggregate is the round's result-aggregation time.
	Aggregate float64 `json:"aggregate_seconds"`
	// Encode is encoding the response and writing it to the socket. A
	// response's trace block, itself part of what is written, has the first
	// half: the time to format the output tensor, which is all but a few
	// microseconds of the encoding. The flight recorder and the log line have
	// the whole, socket write included.
	Encode float64 `json:"encode_seconds,omitempty"`
}

// RequestTrace is one request's end-to-end record.
type RequestTrace struct {
	// TraceID identifies the request across the serving layer, the engine
	// spans, the Perfetto export and the exposition exemplars. Inbound
	// X-SHMT-Trace-Id headers propagate it across tiers.
	TraceID string `json:"trace_id"`
	// Op is the request's opcode name.
	Op string `json:"op"`
	// Tenant is the queue the request was admitted under ("default" when the
	// request carried no X-SHMT-Tenant header).
	Tenant string `json:"tenant,omitempty"`
	// Status is the request outcome ("ok", "shed", "timeout", ...), the same
	// label set as shmt_serve_requests_total.
	Status string `json:"status"`
	// BatchSize is how many requests the round coalesced (0 when the request
	// never reached a round).
	BatchSize int `json:"batch_size"`
	// Start is the wall-clock admission time.
	Start time.Time `json:"start"`
	// TotalSeconds is the end-to-end wall latency.
	TotalSeconds float64 `json:"total_seconds"`
	// Stages attributes the latency to pipeline stages.
	Stages StageBreakdown `json:"stages"`
	// Slow marks traces at or above the flight recorder's SLO threshold.
	Slow bool `json:"slow,omitempty"`
	// Error carries the failure message for non-ok outcomes.
	Error string `json:"error,omitempty"`
}

// FlightRecorder is a bounded in-memory store of recent request traces: a
// ring of the last N requests, plus a second ring that retains only traces
// at or above the SLO threshold — so a slow request stays inspectable after
// the recent window has churned past it. Safe for concurrent use.
type FlightRecorder struct {
	slo float64 // seconds; <= 0 disables slow retention

	mu       sync.Mutex
	recent   []RequestTrace // ring, len == cap once full
	recentAt int
	slow     []RequestTrace // ring of SLO violations
	slowAt   int

	recorded atomic.Int64
	slowSeen atomic.Int64
}

// DefaultFlightRecorderSize is the default per-ring capacity.
const DefaultFlightRecorderSize = 256

// NewFlightRecorder returns a recorder keeping the last size traces (and up
// to size slow traces). size <= 0 selects DefaultFlightRecorderSize; slo <= 0
// disables slow retention.
func NewFlightRecorder(size int, slo time.Duration) *FlightRecorder {
	if size <= 0 {
		size = DefaultFlightRecorderSize
	}
	return &FlightRecorder{
		slo:    slo.Seconds(),
		recent: make([]RequestTrace, 0, size),
		slow:   make([]RequestTrace, 0, size),
	}
}

// SLO returns the slow-trace threshold (0 when disabled).
func (f *FlightRecorder) SLO() time.Duration {
	if f.slo <= 0 {
		return 0
	}
	return time.Duration(f.slo * float64(time.Second))
}

// Record stores one trace, marking it Slow when it breaches the SLO.
func (f *FlightRecorder) Record(t RequestTrace) {
	if f.slo > 0 && t.TotalSeconds >= f.slo {
		t.Slow = true
	}
	f.recorded.Add(1)
	f.mu.Lock()
	f.recentAt = ringPush(&f.recent, f.recentAt, t)
	if t.Slow {
		f.slowSeen.Add(1)
		f.slowAt = ringPush(&f.slow, f.slowAt, t)
	}
	f.mu.Unlock()
}

// ringPush appends t to a fixed-capacity ring, overwriting the oldest entry
// once full, and returns the next write index.
func ringPush(ring *[]RequestTrace, at int, t RequestTrace) int {
	r := *ring
	if len(r) < cap(r) {
		*ring = append(r, t)
		return 0
	}
	r[at] = t
	return (at + 1) % len(r)
}

// Snapshot returns the retained traces, newest first. With slowOnly it dumps
// only the SLO-violation ring.
func (f *FlightRecorder) Snapshot(slowOnly bool) []RequestTrace {
	f.mu.Lock()
	defer f.mu.Unlock()
	if slowOnly {
		return ringSnapshot(f.slow, f.slowAt)
	}
	return ringSnapshot(f.recent, f.recentAt)
}

func ringSnapshot(ring []RequestTrace, at int) []RequestTrace {
	out := make([]RequestTrace, 0, len(ring))
	// at is the oldest entry once the ring is full; walk backwards from the
	// newest so callers see recent traces first.
	for i := 0; i < len(ring); i++ {
		out = append(out, ring[(at-1-i+2*len(ring))%len(ring)])
	}
	return out
}

// FlightRecorderStats summarises the recorder for /statusz.
type FlightRecorderStats struct {
	// Recorded counts every trace ever recorded.
	Recorded int64 `json:"recorded"`
	// Slow counts traces that breached the SLO.
	Slow int64 `json:"slow"`
	// Retained and RetainedSlow are the current ring populations.
	Retained     int `json:"retained"`
	RetainedSlow int `json:"retained_slow"`
	// Capacity is the per-ring capacity.
	Capacity int `json:"capacity"`
	// SLOMillis is the slow threshold in milliseconds (0 = disabled).
	SLOMillis float64 `json:"slo_ms"`
}

// Stats returns the recorder's counters.
func (f *FlightRecorder) Stats() FlightRecorderStats {
	f.mu.Lock()
	retained, retainedSlow, capacity := len(f.recent), len(f.slow), cap(f.recent)
	f.mu.Unlock()
	return FlightRecorderStats{
		Recorded:     f.recorded.Load(),
		Slow:         f.slowSeen.Load(),
		Retained:     retained,
		RetainedSlow: retainedSlow,
		Capacity:     capacity,
		SLOMillis:    f.slo * 1e3,
	}
}

// Trace-ID generation: a per-process random prefix plus a counter, so IDs
// are unique across restarts without per-request entropy reads.
var (
	traceIDPrefix = func() uint32 {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			return uint32(time.Now().UnixNano())
		}
		return binary.LittleEndian.Uint32(b[:])
	}()
	traceIDCounter atomic.Uint64
)

// NewTraceID returns a fresh process-unique trace ID ("xxxxxxxx-n").
func NewTraceID() string {
	return fmt.Sprintf("%08x-%d", traceIDPrefix, traceIDCounter.Add(1))
}
