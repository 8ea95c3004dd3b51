package shmt_test

import (
	"math"
	"reflect"
	"testing"

	"shmt"
	"shmt/internal/workload"
)

func batchRequests() []shmt.BatchRequest {
	img := workload.Image(128, 128, 70)
	noise := workload.Mixed(128, 128, workload.Profile{TileSize: 32}, 71)
	return []shmt.BatchRequest{
		{Op: shmt.OpSobel, Inputs: []*shmt.Matrix{img}},
		{Op: shmt.OpFFT, Inputs: []*shmt.Matrix{noise}},
		{Op: shmt.OpReduceSum, Inputs: []*shmt.Matrix{noise}},
	}
}

func TestExecuteBatch(t *testing.T) {
	s := newSession(t, shmt.Config{Policy: shmt.PolicyWorkStealing, TargetPartitions: 8})
	res, err := s.ExecuteBatch(batchRequests())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 3 {
		t.Fatalf("reports = %d", len(res.Reports))
	}
	if res.Reports[0].Output.Rows != 128 || res.Reports[1].Output.Rows != 128 {
		t.Fatal("map outputs malformed")
	}
	if res.Reports[2].Output.Len() != 1 {
		t.Fatal("reduction output malformed")
	}
	// Each request finishes no later than the batch.
	for i, rep := range res.Reports {
		if rep.Makespan <= 0 || rep.Makespan > res.Makespan+1e-12 {
			t.Fatalf("request %d makespan %g vs batch %g", i, rep.Makespan, res.Makespan)
		}
	}
	if res.Energy.Total() <= 0 || res.Comm.Bytes <= 0 {
		t.Fatal("batch accounting missing")
	}
}

func TestExecuteBatchResultsMatchSoloRuns(t *testing.T) {
	// Co-scheduling must not change the computed data on an exact device.
	s := newSession(t, shmt.Config{Policy: shmt.PolicyCPUOnly, TargetPartitions: 4})
	reqs := batchRequests()
	res, err := s.ExecuteBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		solo, err := s.Execute(r.Op, r.Inputs, r.Attrs)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Reports[i].Output.Equal(solo.Output) {
			t.Fatalf("request %d batch output differs from solo run", i)
		}
	}
}

func TestExecuteBatchSharesCapacity(t *testing.T) {
	// Two identical requests batched together should finish faster than
	// running them back-to-back (the second request's HLOPs fill the idle
	// tail of the first), and never slower.
	s := newSession(t, shmt.Config{Policy: shmt.PolicyWorkStealing, TargetPartitions: 8})
	img := workload.Image(128, 128, 72)
	req := shmt.BatchRequest{Op: shmt.OpSobel, Inputs: []*shmt.Matrix{img}}
	batch, err := s.ExecuteBatch([]shmt.BatchRequest{req, req})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := s.Execute(shmt.OpSobel, req.Inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	sequential := 2 * solo.Makespan
	if batch.Makespan > sequential*1.05 {
		t.Fatalf("batch %g slower than sequential %g", batch.Makespan, sequential)
	}
}

func TestExecuteBatchValidation(t *testing.T) {
	s := newSession(t, shmt.Config{})
	if _, err := s.ExecuteBatch(nil); err == nil {
		t.Fatal("empty batch should fail")
	}
	bad := []shmt.BatchRequest{{Op: shmt.OpAdd, Inputs: []*shmt.Matrix{shmt.NewMatrix(4, 4)}}}
	if _, err := s.ExecuteBatch(bad); err == nil {
		t.Fatal("arity error should surface")
	}
}

func TestExecuteBatchQAWS(t *testing.T) {
	s := newSession(t, shmt.Config{Policy: shmt.PolicyQAWSTS, TargetPartitions: 8, SamplingRate: 0.01})
	res, err := s.ExecuteBatch(batchRequests())
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Makespan) || res.Makespan <= 0 {
		t.Fatal("QAWS batch degenerate")
	}
}

// TestExecuteIsExecuteBatchOfOne pins the engine's single pipeline from the
// public surface: Execute and a one-request ExecuteBatch are the same run, so
// they agree bit for bit on the output and exactly on every accounting field.
// Double buffering follows the policy at this surface — gpu-baseline and
// even-distribution run without it, work-stealing and QAWS-TS with it. Each
// side gets a fresh session so neither replays the other's cached plan.
func TestExecuteIsExecuteBatchOfOne(t *testing.T) {
	a := workload.Mixed(256, 256, workload.Profile{TileSize: 32}, 90)
	b := workload.Uniform(256, 256, 0.1, 1, 91)
	ops := []struct {
		op     shmt.Op
		inputs []*shmt.Matrix
	}{
		{shmt.OpSobel, []*shmt.Matrix{a}},
		{shmt.OpGEMM, []*shmt.Matrix{a, b}},
		{shmt.OpAdd, []*shmt.Matrix{a, b}},
		{shmt.OpFFT, []*shmt.Matrix{a}},
		{shmt.OpReduceHist256, []*shmt.Matrix{b}},
		{shmt.OpReduceSum, []*shmt.Matrix{b}},
	}
	policies := []shmt.PolicyName{shmt.PolicyGPUBaseline, shmt.PolicyEven,
		shmt.PolicyWorkStealing, shmt.PolicyQAWSTS}
	for _, pol := range policies {
		for _, o := range ops {
			cfg := shmt.Config{Policy: pol, TargetPartitions: 16}
			rep, err := newSession(t, cfg).Execute(o.op, o.inputs, nil)
			if err != nil {
				t.Fatalf("%s/%v Execute: %v", pol, o.op, err)
			}
			res, err := newSession(t, cfg).ExecuteBatch([]shmt.BatchRequest{{Op: o.op, Inputs: o.inputs}})
			if err != nil {
				t.Fatalf("%s/%v ExecuteBatch: %v", pol, o.op, err)
			}
			one := res.Reports[0]
			for i, x := range rep.Output.Data {
				if math.Float64bits(x) != math.Float64bits(one.Output.Data[i]) {
					t.Fatalf("%s/%v: output[%d] differs: %g vs %g", pol, o.op, i, x, one.Output.Data[i])
				}
			}
			if rep.Makespan != one.Makespan || rep.Makespan != res.Makespan {
				t.Fatalf("%s/%v: Makespan Execute %.17g, batch report %.17g, batch %.17g",
					pol, o.op, rep.Makespan, one.Makespan, res.Makespan)
			}
			if !reflect.DeepEqual(rep.Busy, res.Busy) || rep.Comm != res.Comm || rep.Energy != res.Energy {
				t.Fatalf("%s/%v: Busy/Comm/Energy differ:\n%v %+v %+v\n%v %+v %+v",
					pol, o.op, rep.Busy, rep.Comm, rep.Energy, res.Busy, res.Comm, res.Energy)
			}
			if rep.HLOPs != one.HLOPs || rep.CriticalHLOPs != one.CriticalHLOPs ||
				!reflect.DeepEqual(rep.DeviceHLOPs, one.DeviceHLOPs) {
				t.Fatalf("%s/%v: HLOPs %d/%d critical %d/%d devices %v/%v", pol, o.op,
					rep.HLOPs, one.HLOPs, rep.CriticalHLOPs, one.CriticalHLOPs, rep.DeviceHLOPs, one.DeviceHLOPs)
			}
		}
	}
}

// TestExecuteBatchDeviceHLOPs: each report of a batch counts where its own
// HLOPs ran, every executed HLOP once, and the batch's footprint covers at
// least the requests' base buffers.
func TestExecuteBatchDeviceHLOPs(t *testing.T) {
	s := newSession(t, shmt.Config{Policy: shmt.PolicyWorkStealing, TargetPartitions: 8})
	reqs := batchRequests()
	res, err := s.ExecuteBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	var base int64
	for i, rep := range res.Reports {
		n := 0
		for _, c := range rep.DeviceHLOPs {
			n += c
		}
		if rep.HLOPs == 0 || n != rep.HLOPs {
			t.Fatalf("report %d: DeviceHLOPs %v sum to %d, HLOPs %d", i, rep.DeviceHLOPs, n, rep.HLOPs)
		}
		for _, in := range reqs[i].Inputs {
			base += int64(len(in.Data)) * 8 // float64 elements
		}
		base += int64(len(rep.Output.Data)) * 8
	}
	if res.PeakBytes < base {
		t.Fatalf("PeakBytes = %d with base buffers %d", res.PeakBytes, base)
	}
}

// TestExecuteBatchDestination: a request with a Dst gets its output there, bit
// for bit what the same request computes without one; and without one the
// output is allocated as it always was, at exactly rows×cols — the library
// path pays no size-class rounding for the serving layer's recycling.
func TestExecuteBatchDestination(t *testing.T) {
	s := newSession(t, shmt.Config{TargetPartitions: 8, PlanCache: shmt.PlanCacheConfig{Disabled: true}})
	img := workload.Image(100, 90, 72)
	plain, err := s.ExecuteBatch([]shmt.BatchRequest{{Op: shmt.OpSobel, Inputs: []*shmt.Matrix{img}}})
	if err != nil {
		t.Fatal(err)
	}
	want := plain.Reports[0].Output
	if cap(want.Data) != 100*90 {
		t.Fatalf("an output of %d elements was allocated at %d", 100*90, cap(want.Data))
	}
	dst := shmt.NewMatrix(100, 90)
	for i := range dst.Data {
		dst.Data[i] = math.NaN()
	}
	into, err := s.ExecuteBatch([]shmt.BatchRequest{{Op: shmt.OpSobel, Inputs: []*shmt.Matrix{img}, Dst: dst}})
	if err != nil {
		t.Fatal(err)
	}
	if got := into.Reports[0].Output; got != dst {
		t.Fatal("the output is not the destination")
	}
	for i, x := range want.Data {
		if math.Float64bits(dst.Data[i]) != math.Float64bits(x) {
			t.Fatalf("element %d is %v with a destination, %v without", i, dst.Data[i], x)
		}
	}
	if _, err := s.ExecuteBatch([]shmt.BatchRequest{{Op: shmt.OpSobel, Inputs: []*shmt.Matrix{img}, Dst: shmt.NewMatrix(90, 100)}}); err == nil {
		t.Fatal("a 90x100 destination for a 100x90 output was accepted")
	}
}
