package serve

import (
	"html/template"
	"math"
	"strings"
	"testing"

	"shmt"
	"shmt/internal/telemetry"
)

// statuszOracle renders the /statusz page with html/template, whose
// contextual escaping writeStatuszHTML must reproduce byte for byte.
var statuszOracle = template.Must(template.New("statusz").Parse(`<!DOCTYPE html>
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

// TestStatuszHTMLMatchesTemplate renders snapshots through writeStatuszHTML
// and through the template oracle and requires equal bytes: empty and full
// snapshots, nil and non-nil plan cache and flight recorder, every string
// field carrying each character the template escapes, and numbers whose
// formatting carries a '+'.
func TestStatuszHTMLMatchesTemplate(t *testing.T) {
	const nasty = "a<b>&c'd\"e+f\x00g é"
	pc := &shmt.PlanCacheStats{Hits: 7, Misses: 3, Entries: 2}
	fr := &telemetry.FlightRecorderStats{Retained: 5, Capacity: 64, Slow: 1, SLOMillis: 12.5}
	snapshots := map[string]statuszResponse{
		"zero": {},
		"live": {
			Status: "ok", UptimeSeconds: 12.345, GoVersion: "go1.24.0", NumGoroutine: 9,
			GOMAXPROCS: 2, Policy: "QAWS-TS/adaptive", Devices: []string{"cpu", "gpu", "tpu"},
			PlanCache: pc, QueueLen: 1, QueueCap: 256, Arriving: 1, InFlightRounds: 2,
			MaxBatch: 8, MaxLingerMs: 2, Workers: 2, WorkerBusySeconds: 0.0125,
			WorkerChunks: 40, BatchRounds: 11, Tracing: true, FlightRecorder: fr,
			Tenants: []TenantStatus{
				{Name: "default", Weight: 1, QueueDepth: 64, Queued: 1, Dispatched: 30, Shed: 2},
				{Name: "batch", Weight: 3, QueueDepth: 16, Dispatched: 4},
			},
		},
		"escapes": {
			Status: "degraded" + nasty, UptimeSeconds: math.Inf(1), GoVersion: nasty,
			Policy: nasty, Devices: []string{nasty, "", "<gpu>"}, Quarantined: []string{nasty},
			MaxLingerMs: 1e21, WorkerBusySeconds: math.NaN(), PprofEnabled: true,
			Tenants:        []TenantStatus{{Name: nasty, Weight: -1}},
			FlightRecorder: &telemetry.FlightRecorderStats{SLOMillis: 1e-7},
		},
		"plan cache only": {Status: "draining", PlanCache: pc, Quarantined: []string{"gpu"}},
		"flight only":     {Status: "ok", FlightRecorder: fr, Tenants: []TenantStatus{{}}},
	}
	for name, st := range snapshots {
		var want, got strings.Builder
		if err := statuszOracle.Execute(&want, st); err != nil {
			t.Fatal(err)
		}
		if err := writeStatuszHTML(&got, &st); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: writer and template differ\nwriter:\n%s\ntemplate:\n%s", name, got.String(), want.String())
		}
	}
}
