package shmt_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"shmt"
	"shmt/internal/metrics"
	"shmt/internal/workload"
)

func newSession(t *testing.T, cfg shmt.Config) *shmt.Session {
	t.Helper()
	s, err := shmt.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestSessionDefaults(t *testing.T) {
	s := newSession(t, shmt.Config{})
	devs := s.Devices()
	if len(devs) != 3 || devs[0] != "cpu" || devs[1] != "gpu" || devs[2] != "tpu" {
		t.Fatalf("devices = %v", devs)
	}
	if s.PolicyName() != string(shmt.DefaultPolicy) || shmt.DefaultPolicy != "QAWS-TS/adaptive" {
		t.Fatalf("default policy = %q", s.PolicyName())
	}
}

func TestSessionUnknownPolicy(t *testing.T) {
	if _, err := shmt.NewSession(shmt.Config{Policy: "bogus"}); err == nil {
		t.Fatal("unknown policy should fail")
	}
}

func TestExecuteAllPolicies(t *testing.T) {
	img := workload.Mixed(128, 128, workload.Profile{TileSize: 32}, 2)
	for _, pol := range shmt.AllPolicies() {
		s := newSession(t, shmt.Config{Policy: pol, TargetPartitions: 8})
		rep, err := s.Execute(shmt.OpSobel, []*shmt.Matrix{img}, nil)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if rep.Output == nil || rep.Makespan <= 0 {
			t.Fatalf("%s: degenerate report", pol)
		}
	}
	if len(shmt.AllQAWSPolicies()) != 6 {
		t.Fatal("six QAWS variants expected")
	}
}

// TestSessionRefusesNonFiniteSettings: a NaN or infinite SamplingRate or
// VirtualScale is an error, while zero, negative and (for the rate) above-1
// values keep their defaults or clamp and run to a finite makespan.
func TestSessionRefusesNonFiniteSettings(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		cfg  shmt.Config
		ok   bool
	}{
		{"rate NaN", shmt.Config{SamplingRate: nan}, false},
		{"rate +Inf", shmt.Config{SamplingRate: inf}, false},
		{"rate -Inf", shmt.Config{SamplingRate: -inf}, false},
		{"scale NaN", shmt.Config{VirtualScale: nan}, false},
		{"scale +Inf", shmt.Config{VirtualScale: inf}, false},
		{"scale -Inf", shmt.Config{VirtualScale: -inf}, false},
		{"rate 0", shmt.Config{SamplingRate: 0}, true},
		{"rate negative", shmt.Config{SamplingRate: -0.5}, true},
		{"rate above 1", shmt.Config{SamplingRate: 2}, true},
		{"scale 0", shmt.Config{VirtualScale: 0}, true},
		{"scale negative", shmt.Config{VirtualScale: -3}, true},
	} {
		s, err := shmt.NewSession(c.cfg)
		if !c.ok {
			if err == nil {
				s.Close()
				t.Errorf("%s: NewSession accepted it", c.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		rep, err := s.Execute(shmt.OpSobel, []*shmt.Matrix{workload.Image(64, 64, 1)}, nil)
		s.Close()
		if err != nil || math.IsNaN(rep.Makespan) || math.IsInf(rep.Makespan, 0) || rep.Makespan <= 0 {
			t.Errorf("%s: makespan %v, err %v", c.name, rep.Makespan, err)
		}
	}
}

func TestExecuteValidation(t *testing.T) {
	s := newSession(t, shmt.Config{})
	m := shmt.NewMatrix(4, 4)
	for _, c := range []struct {
		name   string
		op     shmt.Op
		inputs []*shmt.Matrix
	}{
		{"arity", shmt.OpAdd, []*shmt.Matrix{m}},
		{"nil first input", shmt.OpSobel, []*shmt.Matrix{nil}},
		{"nil second input", shmt.OpStencil, []*shmt.Matrix{m, nil}},
		{"nil GEMM operand", shmt.OpGEMM, []*shmt.Matrix{nil, m}},
	} {
		if _, err := s.Execute(c.op, c.inputs, nil); err == nil {
			t.Errorf("%s: Execute accepted it", c.name)
		}
	}
}

func TestMatMulCorrectness(t *testing.T) {
	s := newSession(t, shmt.Config{Policy: shmt.PolicyCPUOnly, TargetPartitions: 4})
	a := workload.Uniform(16, 8, 0, 1, 3)
	b := workload.Uniform(8, 12, 0, 1, 4)
	rep, err := s.Execute(shmt.OpGEMM, []*shmt.Matrix{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HLOPs == 0 {
		t.Fatal("no HLOPs reported")
	}
	c := rep.Output
	for i := 0; i < 16; i++ {
		for j := 0; j < 12; j++ {
			var want float64
			for k := 0; k < 8; k++ {
				want += a.At(i, k) * b.At(k, j)
			}
			if math.Abs(c.At(i, j)-want) > 1e-9 {
				t.Fatalf("C(%d,%d) = %g want %g", i, j, c.At(i, j), want)
			}
		}
	}
}

func TestReferenceIsExact(t *testing.T) {
	s := newSession(t, shmt.Config{TargetPartitions: 4})
	img := workload.Uniform(64, 64, 0, 1, 10)
	ref, err := s.Reference(shmt.OpSobel, []*shmt.Matrix{img}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Running the same reference twice is bit-identical.
	ref2, _ := s.Reference(shmt.OpSobel, []*shmt.Matrix{img}, nil)
	if !ref.Equal(ref2) {
		t.Fatal("reference not deterministic")
	}
}

func TestQualityOrderingEndToEnd(t *testing.T) {
	// TPU-only must be least accurate; QAWS must improve on plain work
	// stealing; the GPU baseline is exact up to FP32.
	img := workload.Mixed(256, 256, workload.Profile{TileSize: 64}, 11)
	s0 := newSession(t, shmt.Config{Policy: shmt.PolicyCPUOnly, TargetPartitions: 16})
	refRep, err := s0.Execute(shmt.OpSobel, []*shmt.Matrix{img}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mapeOf := func(pol shmt.PolicyName) float64 {
		s := newSession(t, shmt.Config{Policy: pol, TargetPartitions: 16, SamplingRate: 0.01})
		rep, err := s.Execute(shmt.OpSobel, []*shmt.Matrix{img}, nil)
		if err != nil {
			t.Fatal(err)
		}
		m, _ := metrics.MAPE(refRep.Output.Data, rep.Output.Data)
		return m
	}
	tpu := mapeOf(shmt.PolicyTPUOnly)
	ws := mapeOf(shmt.PolicyWorkStealing)
	qaws := mapeOf(shmt.PolicyQAWSTS)
	gpuBase := mapeOf(shmt.PolicyGPUBaseline)
	if !(gpuBase < qaws && qaws < ws && ws < tpu) {
		t.Fatalf("quality ordering violated: gpu=%g qaws=%g ws=%g tpu=%g", gpuBase, qaws, ws, tpu)
	}
}

func TestVirtualScaleTimelineInvariance(t *testing.T) {
	// The same virtual platform at half the data size and 4x slowdown must
	// produce (nearly) the same virtual makespan.
	mk := func(side int) float64 {
		scale := float64(512*512) / float64(side*side)
		s := newSession(t, shmt.Config{Policy: shmt.PolicyWorkStealing,
			TargetPartitions: 16, VirtualScale: scale})
		img := workload.Mixed(side, side, workload.Profile{TileSize: side / 8}, 12)
		rep, err := s.Execute(shmt.OpSobel, []*shmt.Matrix{img}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Makespan
	}
	full, scaled := mk(512), mk(256)
	if math.Abs(full-scaled)/full > 0.05 {
		t.Fatalf("virtual scaling drifted: %g vs %g", full, scaled)
	}
}

// TestDeviceHLOPs: a report counts every executed HLOP once, under the
// device that ran it.
func TestDeviceHLOPs(t *testing.T) {
	s := newSession(t, shmt.Config{Policy: shmt.PolicyWorkStealing, TargetPartitions: 8})
	img := workload.Uniform(128, 128, 0, 1, 14)
	rep, err := s.Execute(shmt.OpSobel, []*shmt.Matrix{img}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, c := range rep.DeviceHLOPs {
		n += c
	}
	if rep.HLOPs == 0 || n != rep.HLOPs {
		t.Fatalf("DeviceHLOPs %v sum to %d, HLOPs %d", rep.DeviceHLOPs, n, rep.HLOPs)
	}
}

func TestFromSliceHelper(t *testing.T) {
	m, err := shmt.FromSlice(2, 2, []float64{1, 2, 3, 4})
	if err != nil || m.At(1, 1) != 4 {
		t.Fatalf("FromSlice: %v", err)
	}
	if _, err := shmt.FromSlice(2, 2, []float64{1}); err == nil {
		t.Fatal("bad FromSlice should fail")
	}
}

func TestFourDeviceSession(t *testing.T) {
	s := newSession(t, shmt.Config{UseDSP: true,
		Policy: shmt.PolicyQAWSTS, TargetPartitions: 16, SamplingRate: 0.01})
	devs := s.Devices()
	if len(devs) != 4 || devs[3] != "dsp" {
		t.Fatalf("devices = %v", devs)
	}
	img := workload.Image(256, 256, 20)
	rep, err := s.Execute(shmt.OpSobel, []*shmt.Matrix{img}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// All three accelerators should participate on a home-domain kernel.
	counts := rep.DeviceHLOPs
	if counts["gpu"] == 0 || counts["tpu"] == 0 || counts["dsp"] == 0 {
		t.Fatalf("not all accelerators participated: %v", counts)
	}
	// The DSP must not see out-of-domain work.
	rep2, err := s.Execute(shmt.OpParabolicPDE,
		[]*shmt.Matrix{workload.Uniform(256, 256, 80, 120, 21), workload.Uniform(256, 256, 90, 110, 22)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.DeviceHLOPs["dsp"] != 0 {
		t.Fatal("DSP executed an opcode outside its home domain")
	}
}

// TestParseOpWireNames: the public ParseOp round-trips every opcode the way
// wire formats spell them (the HTTP server lowercases, CLIs copy Table 1).
func TestParseOpWireNames(t *testing.T) {
	for _, op := range []shmt.Op{shmt.OpSobel, shmt.OpGEMM, shmt.OpAdd} {
		got, ok := shmt.ParseOp(op.String())
		if !ok || got != op {
			t.Fatalf("ParseOp(%q) = %v, %v", op.String(), got, ok)
		}
	}
	if got, ok := shmt.ParseOp("gemm"); !ok || got != shmt.OpGEMM {
		t.Fatalf("ParseOp is not case-insensitive: %v, %v", got, ok)
	}
	if _, ok := shmt.ParseOp("not-an-op"); ok {
		t.Fatal("ParseOp accepted an unknown name")
	}
}

// TestSessionPlanCacheDefaultOn: repeated same-shape Execute calls replay
// the memoized plan by default, and the stats surface through the Session.
func TestSessionPlanCacheDefaultOn(t *testing.T) {
	s := newSession(t, shmt.Config{TargetPartitions: 8})
	img := workload.Mixed(128, 128, workload.Profile{TileSize: 32}, 5)
	var last *shmt.Report
	for i := 0; i < 3; i++ {
		rep, err := s.Execute(shmt.OpSobel, []*shmt.Matrix{img}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if last != nil && !rep.Output.Equal(last.Output) {
			t.Fatalf("run %d: replayed plan changed the output", i)
		}
		last = rep
	}
	st := s.PlanCacheStats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("plan cache stats = %+v, want 2 hits / 1 miss / 1 entry", st)
	}
	// A replayed run charges zero scheduling overhead.
	if last.SchedOverhead != 0 {
		t.Fatalf("replayed run charged %g scheduling overhead", last.SchedOverhead)
	}
}

// TestSessionPlanCacheDisabled: Config.PlanCache.Disabled opts out entirely.
func TestSessionPlanCacheDisabled(t *testing.T) {
	s := newSession(t, shmt.Config{TargetPartitions: 8,
		PlanCache: shmt.PlanCacheConfig{Disabled: true}})
	img := workload.Mixed(128, 128, workload.Profile{TileSize: 32}, 5)
	for i := 0; i < 2; i++ {
		if _, err := s.Execute(shmt.OpSobel, []*shmt.Matrix{img}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.PlanCacheStats(); st != (shmt.PlanCacheStats{}) {
		t.Fatalf("disabled plan cache recorded activity: %+v", st)
	}
}

// TestAdaptiveColdAndWarmAgree runs the default policy on serving-sized
// requests, a key's first run and its replay, against QAWS-TS's runs and the
// GPU alone (sw-pipelining: the one-device branch's plan). Both runs take
// the same branch. A one-device run charges no sampling and runs the GPU's
// plan; a partitioned one is QAWS-TS's. The sampling charge is priced only
// without a plan cache: a 64×64 add then runs on the GPU alone (QAWS-TS runs
// it in 342 µs, the GPU in 166 µs, the GPU baseline's 179 µs
// double-buffered), and with the cache it stays partitioned (142 µs against
// 166 µs). relu 48×48 and Sobel 41×57 run on the GPU alone either way:
// partitioned they lose to the GPU baseline.
func TestAdaptiveColdAndWarmAgree(t *testing.T) {
	us := func(s float64) float64 { return math.Round(s * 1e6) }
	cases := []struct {
		op         shmt.Op
		rows, cols int
		disabled   bool
		oneDevice  bool
		qaws, gpu  float64 // QAWS-TS's replay and the GPU's run, µs; 0 is not checked
	}{
		{shmt.OpAdd, 64, 64, true, true, 342, 166},
		{shmt.OpAdd, 64, 64, false, false, 142, 166},
		{shmt.OpRelu, 48, 48, false, true, 0, 0},
		{shmt.OpSobel, 41, 57, false, true, 0, 0},
	}
	for _, c := range cases {
		where := fmt.Sprintf("%s %dx%d, plan cache disabled %v", c.op, c.rows, c.cols, c.disabled)
		in := []*shmt.Matrix{workload.Uniform(c.rows, c.cols, -1, 1, 3)}
		if c.op == shmt.OpAdd {
			in = append(in, workload.Uniform(c.rows, c.cols, -1, 1, 4))
		}
		runs := func(pol shmt.PolicyName) (cold, warm *shmt.Report) {
			s := newSession(t, shmt.Config{Policy: pol, PlanCache: shmt.PlanCacheConfig{Disabled: c.disabled}})
			var reps [2]*shmt.Report
			for i := range reps {
				rep, err := s.Execute(c.op, in, nil)
				if err != nil {
					t.Fatalf("%s, %s: %v", where, pol, err)
				}
				reps[i] = rep
			}
			return reps[0], reps[1]
		}
		cold, warm := runs(shmt.DefaultPolicy)
		qcold, qwarm := runs(shmt.PolicyQAWSTS)
		gpu, _ := runs(shmt.PolicySWPipelining)
		if c.qaws > 0 && (us(qwarm.Makespan) != c.qaws || us(gpu.Makespan) != c.gpu) {
			t.Fatalf("%s: QAWS-TS %.1f µs, GPU %.1f µs", where, qwarm.Makespan*1e6, gpu.Makespan*1e6)
		}
		for i, r := range []struct{ adaptive, qaws *shmt.Report }{{cold, qcold}, {warm, qwarm}} {
			a := r.adaptive
			oneDevice := a.SchedOverhead == 0 && a.Makespan == gpu.Makespan &&
				reflect.DeepEqual(a.DeviceHLOPs, map[string]int{"gpu": a.HLOPs})
			if c.oneDevice {
				if !oneDevice || a.Makespan > r.qaws.Makespan {
					t.Fatalf("%s, run %d: %.9g s, overhead %g, %v; GPU %.9g s, QAWS-TS %.9g s",
						where, i, a.Makespan, a.SchedOverhead, a.DeviceHLOPs, gpu.Makespan, r.qaws.Makespan)
				}
			} else if a.Makespan != r.qaws.Makespan || a.SchedOverhead != r.qaws.SchedOverhead ||
				!reflect.DeepEqual(a.DeviceHLOPs, r.qaws.DeviceHLOPs) || !sameBits(a.Output, r.qaws.Output) {
				t.Fatalf("%s, run %d: partitioned run %.9g s %v, QAWS-TS %.9g s %v",
					where, i, a.Makespan, a.DeviceHLOPs, r.qaws.Makespan, r.qaws.DeviceHLOPs)
			}
		}
	}
}

// TestAdaptiveBatchIsQAWSTS submits 16 serving-sized requests as one
// ExecuteBatch, twice (planned, then replayed), under the default policy and
// under QAWS-TS. A batch is not priced, so the two rounds are the same:
// batch and per-request makespans, per-device HLOPs and output bits. Priced
// per request on empty lanes instead, the adaptive row would put every small
// request on the GPU, which neither the TPU nor the CPU may steal from:
// this mix would take 1.98 ms against QAWS-TS's 2.33 ms, but 16 relu 48×48
// in one round 1.94 ms against 1.60 ms. A request run alone still takes the
// one-device branch.
func TestAdaptiveBatchIsQAWSTS(t *testing.T) {
	mix := []struct {
		op         shmt.Op
		rows, cols int
	}{
		{shmt.OpAdd, 32, 32}, {shmt.OpAdd, 64, 64}, {shmt.OpRelu, 48, 48}, {shmt.OpRelu, 64, 64},
		{shmt.OpReduceSum, 32, 32}, {shmt.OpReduceSum, 64, 64}, {shmt.OpSobel, 48, 48}, {shmt.OpSobel, 64, 64},
		{shmt.OpMeanFilter, 32, 32}, {shmt.OpMeanFilter, 64, 64}, {shmt.OpSobel, 41, 57}, {shmt.OpAdd, 53, 39},
		{shmt.OpRelu, 48, 48}, {shmt.OpRelu, 48, 48}, {shmt.OpSobel, 41, 57}, {shmt.OpAdd, 53, 39},
	}
	var reqs []shmt.BatchRequest
	for i, m := range mix {
		p := workload.Profile{TileSize: 8}
		in := []*shmt.Matrix{workload.Mixed(m.rows, m.cols, p, int64(3+i))}
		if m.op == shmt.OpAdd {
			in = append(in, workload.Mixed(m.rows, m.cols, p, int64(100+i)))
		}
		reqs = append(reqs, shmt.BatchRequest{Op: m.op, Inputs: in})
	}
	for _, disabled := range []bool{false, true} {
		cfg := shmt.Config{PlanCache: shmt.PlanCacheConfig{Disabled: disabled}}
		adaptive := newSession(t, cfg)
		cfg.Policy = shmt.PolicyQAWSTS
		qaws := newSession(t, cfg)
		for run := 0; run < 2; run++ {
			where := fmt.Sprintf("plan cache disabled %v, run %d", disabled, run)
			a, err := adaptive.ExecuteBatch(reqs)
			if err != nil {
				t.Fatal(err)
			}
			q, err := qaws.ExecuteBatch(reqs)
			if err != nil {
				t.Fatal(err)
			}
			if a.Makespan != q.Makespan {
				t.Fatalf("%s: batch makespan %.9g s, QAWS-TS %.9g s", where, a.Makespan, q.Makespan)
			}
			for i := range reqs {
				ar, qr := a.Reports[i], q.Reports[i]
				if ar.Makespan != qr.Makespan || ar.SchedOverhead != qr.SchedOverhead ||
					!reflect.DeepEqual(ar.DeviceHLOPs, qr.DeviceHLOPs) || !sameBits(ar.Output, qr.Output) {
					t.Fatalf("%s, request %d (%s %dx%d): %.9g s %v, QAWS-TS %.9g s %v", where, i,
						mix[i].op, mix[i].rows, mix[i].cols, ar.Makespan, ar.DeviceHLOPs, qr.Makespan, qr.DeviceHLOPs)
				}
			}
		}
		one, err := adaptive.ExecuteBatch(reqs[2:3])
		if err != nil {
			t.Fatal(err)
		}
		if rep := one.Reports[0]; !reflect.DeepEqual(rep.DeviceHLOPs, map[string]int{"gpu": rep.HLOPs}) || rep.SchedOverhead != 0 {
			t.Fatalf("plan cache disabled %v: relu 48x48 alone ran %v with overhead %g", disabled, rep.DeviceHLOPs, rep.SchedOverhead)
		}
	}
}

// sameBits reports whether a and b hold the same shape and bits.
func sameBits(a, b *shmt.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || len(a.Data) != len(b.Data) {
		return false
	}
	for i, x := range a.Data {
		if math.Float64bits(x) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}
