package shmt_test

import (
	"reflect"
	"testing"

	"shmt"
)

// configCensus names, for every shmt.Config setting, the caller outside the
// tests that sets it to something other than its default. A setting that
// only ever takes one value is a constant, not a knob: delete it instead of
// adding a row. The three rows marked "tests only" have no such caller yet;
// they are the next candidates for deletion.
var configCensus = map[string]string{
	"UseCPU":                "Session.Reference: the exact CPU-only session quality is scored against",
	"UseGPU":                "tests only (TestSessionDeviceSelection)",
	"UseTPU":                "tests only (TestSessionDeviceSelection)",
	"UseDSP":                "bench.AblationDSP: the four-device ablation",
	"Policy":                "shmtrun and shmtserved -policy; bench.Options.SessionConfig",
	"TargetPartitions":      "shmtrun and shmtserved -partitions; bench.Options.SessionConfig",
	"SamplingRate":          "shmtrun -rate; bench.Fig9's rate sweep",
	"Seed":                  "shmtrun and shmtserved -seed; bench.Options.SessionConfig",
	"VirtualScale":          "bench.Options.SessionConfig: the full-size timeline at a reduced side",
	"Workers":               "shmtserved -workers",
	"Telemetry.Enabled":     "shmtserved; shmtrun -trace, -trace-out and -report-out; benchmarks/e2e",
	"Telemetry.MetricsAddr": "shmtrun and shmtserved -metrics-addr",
	"Chaos":                 "shmtrun and shmtserved -chaos",
	"Resilience":            "tests only (TestHealthzChaosBreakerCycle)",
	"PlanCache.Disabled":    "bench.Options.SessionConfig; shmtrun without -plan-cache",
}

// configFields lists t's settings by dotted path, descending into the
// setting groups the shmt package itself declares (Telemetry, PlanCache).
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

// TestConfigCensus holds the census to shmt.Config: a new setting must name
// the caller that moves it, and a deleted one must leave the table.
func TestConfigCensus(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range configFields(reflect.TypeOf(shmt.Config{}), "") {
		seen[name] = true
		if configCensus[name] == "" {
			t.Errorf("Config.%s names no caller that sets it; make it a constant or add its caller to configCensus", name)
		}
	}
	for name := range configCensus {
		if !seen[name] {
			t.Errorf("configCensus lists Config.%s, which no longer exists", name)
		}
	}
}
