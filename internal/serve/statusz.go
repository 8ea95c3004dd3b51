package serve

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"time"

	"shmt"
	"shmt/internal/parallel"
	"shmt/internal/telemetry"
	"shmt/internal/wire"
)

// Optional backend introspection. The serving layer only requires Backend,
// but a real shmt.Session answers more; /statusz surfaces whatever the
// backend can via these narrow type assertions, and omits the rest.
type deviceLister interface{ Devices() []string }
type planCacheStatser interface{ PlanCacheStats() shmt.PlanCacheStats }
type policyNamer interface{ PolicyName() string }

// statuszResponse is the GET /statusz document: a point-in-time snapshot of
// the serving process for operators — health, topology, admission queue,
// worker pool, and trace retention in one read.
type statuszResponse struct {
	// Status mirrors /healthz: "ok", "degraded" (breakers open), or
	// "draining" (shutdown in progress).
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	GoVersion     string  `json:"go_version"`
	NumGoroutine  int     `json:"num_goroutine"`
	GOMAXPROCS    int     `json:"gomaxprocs"`

	// Backend topology (absent when the backend cannot answer).
	Policy      string   `json:"policy,omitempty"`
	Devices     []string `json:"devices,omitempty"`
	Quarantined []string `json:"quarantined,omitempty"`

	PlanCache *shmt.PlanCacheStats `json:"plan_cache,omitempty"`

	// Admission queue and micro-batcher. Arriving counts requests whose
	// handler has been entered but which are not yet queued (still reading
	// their body): 0 on an idle server; a value that stays up is a leaked
	// announcement, and every round would then wait out MaxLinger.
	QueueLen       int     `json:"queue_len"`
	QueueCap       int     `json:"queue_cap"`
	Arriving       int     `json:"arriving"`
	InFlightRounds int64   `json:"inflight_rounds"`
	MaxBatch       int     `json:"max_batch"`
	MaxLingerMs    float64 `json:"max_linger_ms"`
	// Tenants lists every tenant admission queue seen so far (weight, depth,
	// backlog and lifetime dispatch/shed counters).
	Tenants []TenantStatus `json:"tenants,omitempty"`

	// Host worker pool (busy/chunks are zero unless telemetry is enabled).
	Workers           int     `json:"workers"`
	WorkerBusySeconds float64 `json:"worker_busy_seconds"`
	WorkerChunks      int64   `json:"worker_chunks"`
	BatchRounds       int64   `json:"batch_rounds"`

	// Observability switches and retention.
	Tracing        bool                           `json:"tracing"`
	FlightRecorder *telemetry.FlightRecorderStats `json:"flight_recorder,omitempty"`
	PprofEnabled   bool                           `json:"pprof_enabled"`
}

func (s *Server) statusSnapshot() statuszResponse {
	st := statuszResponse{
		Status:         "ok",
		UptimeSeconds:  time.Since(s.started).Seconds(),
		GoVersion:      runtime.Version(),
		NumGoroutine:   runtime.NumGoroutine(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Quarantined:    s.be.QuarantinedDevices(),
		QueueLen:       s.batcher.QueueLen(),
		QueueCap:       s.batcher.QueueCap(),
		Arriving:       s.batcher.Arriving(),
		InFlightRounds: s.batcher.InFlight(),
		Tenants:        s.batcher.Tenants(),
		MaxBatch:       s.cfg.MaxBatch,
		MaxLingerMs:    float64(s.cfg.MaxLinger) / float64(time.Millisecond),
		Workers:        parallel.Workers(),
		WorkerBusySeconds: float64(telemetry.WorkerBusyNanos.Value()) /
			float64(time.Second),
		WorkerChunks: telemetry.WorkerChunks.Value(),
		BatchRounds:  telemetry.ServeBatchRounds.Value(),
		Tracing:      s.cfg.Tracing,
		PprofEnabled: s.cfg.EnablePprof,
	}
	if s.draining.Load() {
		st.Status = "draining"
	} else if len(st.Quarantined) > 0 {
		st.Status = "degraded"
	}
	if dl, ok := s.be.(deviceLister); ok {
		st.Devices = dl.Devices()
	}
	if pn, ok := s.be.(policyNamer); ok {
		st.Policy = pn.PolicyName()
	}
	if pc, ok := s.be.(planCacheStatser); ok {
		stats := pc.PlanCacheStats()
		st.PlanCache = &stats
	}
	if s.flight != nil {
		fr := s.flight.Stats()
		st.FlightRecorder = &fr
	}
	return st
}

// statuszHead is the page up to the status line; nothing in it varies.
const statuszHead = `<!DOCTYPE html>
<html><head><title>shmt statusz</title><style>
body{font-family:monospace;margin:2em}table{border-collapse:collapse}
td,th{border:1px solid #999;padding:4px 10px;text-align:left}
.ok{color:#070}.degraded{color:#b60}.draining{color:#b00}
</style></head><body>
<h1>shmt serving status</h1>
`

// htmlEscaper escapes a value for HTML text or a quoted attribute with
// html/template's own replacements, so the page reads as the template did.
var htmlEscaper = strings.NewReplacer(
	"\x00", "\uFFFD", `"`, "&#34;", "&", "&amp;", "'", "&#39;",
	"+", "&#43;", "<", "&lt;", ">", "&gt;")

// esc formats v as fmt.Sprint does and escapes the result.
func esc(v any) string { return htmlEscaper.Replace(fmt.Sprint(v)) }

// escEach escapes each of ss and follows it with a space.
func escEach(ss []string) string {
	var b strings.Builder
	for _, s := range ss {
		b.WriteString(esc(s) + " ")
	}
	return b.String()
}

// writeStatuszHTML renders st as the /statusz HTML table. The page is the
// one html/template wrote, blank line after the tenant rows included.
func writeStatuszHTML(w io.Writer, st *statuszResponse) error {
	var b strings.Builder
	b.WriteString(statuszHead)
	fmt.Fprintf(&b, "<p>status: <b class=\"%s\">%s</b> &mdash; up %ss &mdash; %s &mdash; %s goroutines</p>\n",
		esc(st.Status), esc(st.Status), esc(fmt.Sprintf("%.1f", st.UptimeSeconds)), esc(st.GoVersion), esc(st.NumGoroutine))
	b.WriteString("<table>\n")
	fmt.Fprintf(&b, "<tr><th>policy</th><td>%s</td></tr>\n", esc(st.Policy))
	fmt.Fprintf(&b, "<tr><th>devices</th><td>%s</td></tr>\n", escEach(st.Devices))
	fmt.Fprintf(&b, "<tr><th>quarantined</th><td>%s</td></tr>\n", escEach(st.Quarantined))
	fmt.Fprintf(&b, "<tr><th>queue</th><td>%s / %s</td></tr>\n", esc(st.QueueLen), esc(st.QueueCap))
	fmt.Fprintf(&b, "<tr><th>arriving</th><td>%s</td></tr>\n", esc(st.Arriving))
	for _, t := range st.Tenants {
		fmt.Fprintf(&b, "<tr><th>tenant %s</th><td>w%s &mdash; %s/%s queued, %s dispatched, %s shed</td></tr>\n",
			esc(t.Name), esc(t.Weight), esc(t.Queued), esc(t.QueueDepth), esc(t.Dispatched), esc(t.Shed))
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "<tr><th>in-flight rounds</th><td>%s</td></tr>\n", esc(st.InFlightRounds))
	fmt.Fprintf(&b, "<tr><th>batch rounds</th><td>%s</td></tr>\n", esc(st.BatchRounds))
	fmt.Fprintf(&b, "<tr><th>max batch / linger</th><td>%s / %sms</td></tr>\n", esc(st.MaxBatch), esc(st.MaxLingerMs))
	fmt.Fprintf(&b, "<tr><th>workers</th><td>%s (%ss busy, %s chunks)</td></tr>\n",
		esc(st.Workers), esc(fmt.Sprintf("%.3f", st.WorkerBusySeconds)), esc(st.WorkerChunks))
	if pc := st.PlanCache; pc != nil {
		fmt.Fprintf(&b, "<tr><th>plan cache</th><td>%s hits, %s misses, %s entries</td></tr>",
			esc(pc.Hits), esc(pc.Misses), esc(pc.Entries))
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "<tr><th>tracing</th><td>%s</td></tr>\n", esc(st.Tracing))
	if fr := st.FlightRecorder; fr != nil {
		fmt.Fprintf(&b, `<tr><th>flight recorder</th><td>%s/%s retained, %s slow (SLO %sms) &mdash; <a href="/debug/requests">recent</a>, <a href="/debug/requests?slow=1">slow</a></td></tr>`,
			esc(fr.Retained), esc(fr.Capacity), esc(fr.Slow), esc(fr.SLOMillis))
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "<tr><th>pprof</th><td>%s</td></tr>\n", esc(st.PprofEnabled))
	b.WriteString("</table></body></html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// handleStatusz serves the live process snapshot, as JSON by default and as
// an HTML table when the client asks for it (Accept: text/html, or
// ?format=html).
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	st := s.statusSnapshot()
	wantHTML := r.URL.Query().Get("format") == "html" ||
		strings.Contains(r.Header.Get("Accept"), "text/html")
	if !wantHTML {
		wire.WriteJSON(w, http.StatusOK, st)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = writeStatuszHTML(w, &st)
}

// debugRequestsResponse is the GET /debug/requests document: the flight
// recorder's retained traces, newest first.
type debugRequestsResponse struct {
	SLOMillis float64                  `json:"slo_ms"`
	SlowOnly  bool                     `json:"slow_only"`
	Count     int                      `json:"count"`
	Traces    []telemetry.RequestTrace `json:"traces"`
}

// handleDebugRequests dumps the flight recorder. ?slow=1 restricts the dump
// to the SLO-violation ring. 404 when tracing is disabled.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		http.Error(w, "tracing disabled; start with Config.Tracing", http.StatusNotFound)
		return
	}
	slowOnly := r.URL.Query().Get("slow") == "1"
	traces := s.flight.Snapshot(slowOnly)
	wire.WriteJSON(w, http.StatusOK, debugRequestsResponse{
		SLOMillis: float64(s.flight.SLO()) / float64(time.Millisecond),
		SlowOnly:  slowOnly,
		Count:     len(traces),
		Traces:    traces,
	})
}
