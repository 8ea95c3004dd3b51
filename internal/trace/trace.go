// Package trace records what the SHMT engine did during a run: per-HLOP
// execution events, per-device busy time, data-movement accounting, and the
// memory-footprint bookkeeping behind Fig. 11.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Event is one HLOP execution on a device.
type Event struct {
	HLOP     int     // HLOP index within the VOP
	Device   string  // executing device name
	Op       string  // opcode
	Start    float64 // virtual seconds
	End      float64
	BytesIn  int64
	BytesOut int64
	Stolen   bool // true if the HLOP ran on a device other than its initial assignment
	Critical bool // true if the policy classified the partition critical
}

// Trace accumulates a run's events and resource accounting. All methods are
// safe for concurrent use, so callers on several goroutines may record
// events and staging allocations directly, without locking of their own.
type Trace struct {
	mu     sync.Mutex
	events []Event

	// Footprint accounting (bytes).
	baseBytes    int64 // application input+output buffers
	stagingBytes int64 // currently live staging (device copies, quantized buffers)
	peakBytes    int64
}

// New returns an empty trace.
func New() *Trace { return &Trace{} }

// Record appends an event.
func (t *Trace) Record(e Event) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Events returns a copy of the recorded events.
func (t *Trace) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// Len returns how many events have been recorded.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// AddBase registers long-lived application buffers (inputs, outputs).
func (t *Trace) AddBase(bytes int64) {
	t.mu.Lock()
	t.baseBytes += bytes
	t.sampleLocked()
	t.mu.Unlock()
}

// AllocStaging registers a transient staging buffer coming alive.
func (t *Trace) AllocStaging(bytes int64) {
	t.mu.Lock()
	t.stagingBytes += bytes
	t.sampleLocked()
	t.mu.Unlock()
}

// FreeStaging releases a staging buffer.
func (t *Trace) FreeStaging(bytes int64) {
	t.mu.Lock()
	t.stagingBytes -= bytes
	if t.stagingBytes < 0 {
		t.stagingBytes = 0
	}
	t.mu.Unlock()
}

func (t *Trace) sampleLocked() {
	if cur := t.baseBytes + t.stagingBytes; cur > t.peakBytes {
		t.peakBytes = cur
	}
}

// PeakBytes returns the peak of base+staging bytes observed.
func (t *Trace) PeakBytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.peakBytes
}

// BaseBytes returns the registered long-lived buffer total.
func (t *Trace) BaseBytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.baseBytes
}

// CountByDevice returns how many HLOPs each device executed.
func (t *Trace) CountByDevice() map[string]int {
	out := map[string]int{}
	for _, e := range t.Events() {
		out[e.Device]++
	}
	return out
}

// StolenCount returns how many HLOPs ran on a device other than their
// initial assignment.
func (t *Trace) StolenCount() int {
	var n int
	for _, e := range t.Events() {
		if e.Stolen {
			n++
		}
	}
	return n
}

// BusyByDevice sums execution time per device.
func (t *Trace) BusyByDevice() map[string]float64 {
	out := map[string]float64{}
	for _, e := range t.Events() {
		out[e.Device] += e.End - e.Start
	}
	return out
}

// Summary renders a short human-readable digest (device -> count/busy).
func (t *Trace) Summary() string {
	counts := t.CountByDevice()
	busy := t.BusyByDevice()
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s: %d hlops %.3gs", n, counts[n], busy[n])
	}
	if s := t.StolenCount(); s > 0 {
		fmt.Fprintf(&b, " (%d stolen)", s)
	}
	return b.String()
}
