package shmt_test

import (
	"reflect"
	"testing"

	"shmt"
	"shmt/internal/cluster"
	"shmt/internal/serve"
)

// A census names, for every setting of a config struct, the caller outside
// the tests that sets it to something other than its default: a daemon flag
// a script, smoke test or doc passes, a benchmark workload, or a library
// path. A setting that only ever takes one value is a constant, not a knob:
// delete it instead of adding a row. A setting that duplicates another way of
// setting the same value goes too.

// sessionCensus covers shmt.Config.
var sessionCensus = map[string]string{
	"UseDSP":             "bench.AblationDSP: the four-device ablation",
	"Policy":             "shmtrun and shmtserved -policy; bench.Options.SessionConfig",
	"TargetPartitions":   "shmtrun and shmtserved -partitions; bench.Options.SessionConfig",
	"SamplingRate":       "shmtrun -rate; bench.Fig9's rate sweep",
	"Seed":               "shmtrun and shmtserved -seed; bench.Options.SessionConfig",
	"VirtualScale":       "bench.Options.SessionConfig: the full-size timeline at a reduced side",
	"Telemetry.Enabled":  "shmtserved; shmtrun -trace, -trace-out and -report-out; benchmarks/e2e",
	"Chaos":              "shmtrun and shmtserved -chaos",
	"PlanCache.Disabled": "bench.Options.SessionConfig; shmtrun without -plan-cache",
}

// serveCensus covers serve.Config, the serving tier shmtserved runs.
var serveCensus = map[string]string{
	"MaxBatch":           "shmtserved -max-batch (servesmoke, clustersmoke)",
	"MaxLinger":          "shmtserved -max-linger (clustersmoke)",
	"QueueDepth":         "shmtserved -queue-depth (README)",
	"Tenants":            "shmtserved -tenant (servesmoke, clustersmoke)",
	"DefaultTimeout":     "shmtserved -request-timeout (README)",
	"CriticalDeadline":   "shmtserved -critical-deadline (servesmoke)",
	"RetryAfter":         "shmtserved -retry-after: a deployment setting",
	"Spans":              "shmtserved and benchmarks/e2e: the session's TelemetryRecorder",
	"Tracing":            "shmtserved -tracing (clustersmoke); benchmarks/e2e traced runs",
	"FlightRecorderSize": "shmtserved -flight-recorder; benchmarks/e2e traced runs",
	"SlowSLO":            "shmtserved -slow-slo (README)",
	"Logger":             "shmtserved -log-format and -log-level",
	"EnablePprof":        "shmtserved -pprof (README)",
}

// routerCensus covers cluster.RouterConfig with its pool and breaker
// settings, the router tier shmtrouterd runs.
var routerCensus = map[string]string{
	"Pool.Breaker.Threshold": "shmtrouterd -breaker-threshold (clustersmoke)",
	"Pool.Breaker.Cooldown":  "shmtrouterd -breaker-cooldown (clustersmoke)",
	"Pool.ProbeInterval":     "shmtrouterd -probe-interval (clustersmoke)",
	"Pool.ProbeTimeout":      "shmtrouterd -probe-timeout (clustersmoke)",
	"Seeds":                  "shmtrouterd -backends; benchmarks/e2e cluster_mixed",
	"BackendTimeout":         "shmtrouterd -backend-timeout: a deployment setting",
	"ScatterThreshold":       "shmtrouterd -scatter-threshold (clustersmoke); benchmarks/e2e cluster_mixed",
	"MaxFanout":              "shmtrouterd -max-fanout (clustersmoke); benchmarks/e2e cluster_mixed",
	"RetryAfter":             "shmtrouterd -retry-after: a deployment setting",
	"TenantLimits":           "shmtrouterd -tenant-limit (clustersmoke)",
	"Logger":                 "shmtrouterd -log-format and -log-level",
}

// configFields lists t's settings by dotted path, descending into the
// setting groups t's own package declares (shmt.Telemetry, cluster.PoolConfig).
func configFields(t reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Type.Kind() == reflect.Struct && f.Type.PkgPath() == t.PkgPath() {
			out = append(out, configFields(f.Type, prefix+f.Name+".")...)
			continue
		}
		out = append(out, prefix+f.Name)
	}
	return out
}

// TestConfigCensus holds every census to its struct: a new setting must name
// the caller that moves it, and a deleted one must leave its table.
func TestConfigCensus(t *testing.T) {
	for _, c := range []struct {
		cfg    any
		census map[string]string
	}{
		{shmt.Config{}, sessionCensus},
		{serve.Config{}, serveCensus},
		{cluster.RouterConfig{}, routerCensus},
	} {
		typ := reflect.TypeOf(c.cfg)
		seen := map[string]bool{}
		for _, name := range configFields(typ, "") {
			seen[name] = true
			if c.census[name] == "" {
				t.Errorf("%s.%s names no caller that sets it; make it a constant or add its caller to the census", typ, name)
			}
		}
		for name := range c.census {
			if !seen[name] {
				t.Errorf("the census lists %s.%s, which no longer exists", typ, name)
			}
		}
	}
}
