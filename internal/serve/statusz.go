package serve

import (
	"html/template"
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

var statuszHTML = template.Must(template.New("statusz").Parse(`<!DOCTYPE html>
<html><head><title>shmt statusz</title><style>
body{font-family:monospace;margin:2em}table{border-collapse:collapse}
td,th{border:1px solid #999;padding:4px 10px;text-align:left}
.ok{color:#070}.degraded{color:#b60}.draining{color:#b00}
</style></head><body>
<h1>shmt serving status</h1>
<p>status: <b class="{{.Status}}">{{.Status}}</b> &mdash; up {{printf "%.1f" .UptimeSeconds}}s &mdash; {{.GoVersion}} &mdash; {{.NumGoroutine}} goroutines</p>
<table>
<tr><th>policy</th><td>{{.Policy}}</td></tr>
<tr><th>devices</th><td>{{range .Devices}}{{.}} {{end}}</td></tr>
<tr><th>quarantined</th><td>{{range .Quarantined}}{{.}} {{end}}</td></tr>
<tr><th>queue</th><td>{{.QueueLen}} / {{.QueueCap}}</td></tr>
<tr><th>arriving</th><td>{{.Arriving}}</td></tr>
{{range .Tenants}}<tr><th>tenant {{.Name}}</th><td>w{{.Weight}} &mdash; {{.Queued}}/{{.QueueDepth}} queued, {{.Dispatched}} dispatched, {{.Shed}} shed</td></tr>
{{end}}
<tr><th>in-flight rounds</th><td>{{.InFlightRounds}}</td></tr>
<tr><th>batch rounds</th><td>{{.BatchRounds}}</td></tr>
<tr><th>max batch / linger</th><td>{{.MaxBatch}} / {{.MaxLingerMs}}ms</td></tr>
<tr><th>workers</th><td>{{.Workers}} ({{printf "%.3f" .WorkerBusySeconds}}s busy, {{.WorkerChunks}} chunks)</td></tr>
{{if .PlanCache}}<tr><th>plan cache</th><td>{{.PlanCache.Hits}} hits, {{.PlanCache.Misses}} misses, {{.PlanCache.Entries}} entries</td></tr>{{end}}
<tr><th>tracing</th><td>{{.Tracing}}</td></tr>
{{if .FlightRecorder}}<tr><th>flight recorder</th><td>{{.FlightRecorder.Retained}}/{{.FlightRecorder.Capacity}} retained, {{.FlightRecorder.Slow}} slow (SLO {{.FlightRecorder.SLOMillis}}ms) &mdash; <a href="/debug/requests">recent</a>, <a href="/debug/requests?slow=1">slow</a></td></tr>{{end}}
<tr><th>pprof</th><td>{{.PprofEnabled}}</td></tr>
</table></body></html>
`))

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
	_ = statuszHTML.Execute(w, st)
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
