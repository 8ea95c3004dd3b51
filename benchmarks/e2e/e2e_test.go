package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// benchmarkFile is the part of ../../BENCHMARK.json the smoke test reads.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// sameNames fails unless the run's metrics and the declared ones are the same
// set with the same units.
func sameNames(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: run reports %d metrics, BENCHMARK.json declares %d", what, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: BENCHMARK.json declares %s, the run does not report it", what, w.Name)
		} else if m.Unit != w.Unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, w.Name, m.Unit, w.Unit)
		}
	}
}

// TestSmoke runs every workload at tiny counts: twice with tracing off, from
// one prepare phase, and compares the two runs (the virtual-time and quality
// metrics must be equal exactly, the allocation metrics roughly), then once
// traced. The metric names must be BENCHMARK.json's, in both directions.
func TestSmoke(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(bf.Workloads), len(workloads))
	}
	for i, def := range workloads {
		if bf.Workloads[i].Name != def.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, harness says %q", i, bf.Workloads[i].Name, def.name)
		}
		bench, err := newBench(def, params{seed: 1, seconds: 1, smoke: true})
		if err != nil {
			t.Fatal(err)
		}
		a, err := bench.runTimed()
		if err != nil {
			t.Fatal(err)
		}
		b, err := bench.runTimed()
		if err != nil {
			t.Fatal(err)
		}
		sameNames(t, def.name, a.Metrics, bf.EndToEnd)
		if !a.Correct || !b.Correct || a.Failed+b.Failed != 0 {
			t.Errorf("%s: runs not correct: %+v / %+v", def.name, a, b)
		}
		for n, m := range a.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", def.name, n, m.Value)
			}
		}
		for _, n := range []string{"sim_speedup", "quality_mape_pct"} {
			if x, y := a.Metrics[n].Value, b.Metrics[n].Value; x != y {
				t.Errorf("%s: %s differs between two runs of the same seed: %v vs %v", def.name, n, x, y)
			}
		}
		// Eight ops with two clients racing for the batcher repeat to within a
		// tenth or so; a full run's thousands repeat to half a percent (README).
		for _, n := range []string{"alloc_mb_per_op", "allocs_per_op"} {
			x, y := a.Metrics[n].Value, b.Metrics[n].Value
			if math.Abs(x-y) > 0.20*math.Max(x, y) {
				t.Errorf("%s: %s differs by more than 20 %% between two runs: %v vs %v", def.name, n, x, y)
			}
		}

		tr, err := bench.runTraced()
		if err != nil {
			t.Fatal(err)
		}
		sameNames(t, def.name+" traced", tr.Metrics, bf.PerLayer)
		if !tr.Correct {
			t.Errorf("%s: traced run not correct: attempted %d failed %d", def.name, tr.Attempted, tr.Failed)
		}
		reached := []string{"ladder.solo_ms", "kernels.exec_ms", "core.execute_ms"}
		if def.shape != shapeLib {
			reached = append(reached, "serve.wire_ms", "serve.req_mb_per_op")
		}
		if def.shape == shapeCluster {
			reached = append(reached, "cluster.router_overhead_ms", "cluster.scatter_ms")
		}
		for _, n := range reached {
			if tr.Metrics[n].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", def.name, n, tr.Metrics[n].Value)
			}
		}
	}
}
