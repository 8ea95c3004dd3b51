package telemetry

import (
	"sync"
	"time"
)

// Clock identifies a span's time domain. The runtime has two: the simulated
// platform's virtual clock (device lanes, seconds of modelled time) and the
// host's wall clock (lifecycle phases, worker activity). The Perfetto export
// keeps them in separate process groups so the timebases never mix.
type Clock uint8

const (
	// ClockVirtual is the engine's modelled device timeline.
	ClockVirtual Clock = iota
	// ClockWall is host wall time, in seconds since the Recorder's epoch.
	ClockWall
)

// Span is one closed interval on a named lane.
type Span struct {
	// Track is the lane name: a device name for virtual spans, a host lane
	// ("host") for lifecycle phases.
	Track string
	// Name labels the interval (opcode, phase name).
	Name string
	// Clock is the span's time domain.
	Clock Clock
	// Start and End are seconds in the span's clock domain.
	Start, End float64
	// ID carries the HLOP id for virtual-clock device spans.
	ID int
	// StealFrom names the victim lane when this span is a stolen HLOP's
	// execution; the Perfetto export draws a flow arrow victim → thief.
	StealFrom string
	// Critical marks spans whose HLOP the policy classified critical.
	Critical bool
	// Fault marks failed-dispatch intervals (dispatch overhead + backoff
	// charged to the device for an HLOP that errored); the Perfetto export
	// colours them as errors.
	Fault bool
	// TraceID links the span to a serving-layer request trace. On engine
	// spans it attributes device work to the originating request; combined
	// with Root it defines the request lanes in the Perfetto export.
	TraceID string
	// Root marks a request-lane span (the request's end-to-end interval and
	// its stage slices). The Perfetto export groups root spans into one lane
	// per TraceID under a dedicated "shmt requests" process and draws flow
	// arrows from the request to every engine span sharing its TraceID.
	Root bool
}

// Recorder collects one run's (or session's) spans and remembers the
// registry snapshot taken when it was attached, so Report can compute
// per-run counter deltas against the process-global metrics.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	base  Snapshot
	spans []Span
}

// NewRecorder returns a recorder with its wall epoch at now and its counter
// baseline at the Default registry's current values.
func NewRecorder() *Recorder {
	return &Recorder{epoch: time.Now(), base: Default.Snapshot()}
}

// Reset discards recorded spans (retaining their backing array) and re-bases
// the wall epoch and counter snapshot, so one long-lived recorder can scope
// per-interval reports without reallocating. The epoch/base swap happens
// under the recorder's lock, so concurrent Now/RecordSpan calls see either
// the old or the new timebase, never a torn mix — though spans recorded
// while Reset runs land in whichever interval wins the race.
func (r *Recorder) Reset() {
	// Snapshot outside the lock: it walks the registry and must not hold up
	// concurrent RecordSpan calls.
	base := Default.Snapshot()
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.epoch = time.Now()
	r.base = base
	r.mu.Unlock()
}

// Now returns wall seconds since the recorder's epoch.
func (r *Recorder) Now() float64 {
	r.mu.Lock()
	epoch := r.epoch
	r.mu.Unlock()
	return time.Since(epoch).Seconds()
}

// RecordSpan appends a span. Safe for concurrent use.
func (r *Recorder) RecordSpan(s Span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}
