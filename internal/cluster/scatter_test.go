package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"shmt"
	"shmt/internal/hlop"
	"shmt/internal/serve"
	"shmt/internal/tensor"
	"shmt/internal/vop"
	"shmt/internal/wire"
)

func TestScatterEligibleSet(t *testing.T) {
	for _, op := range []vop.Opcode{vop.OpAdd, vop.OpMultiply, vop.OpGEMM, vop.OpFFT, vop.OpDCT8x8, vop.OpParabolicPDE} {
		if !ScatterEligible(op) {
			t.Errorf("%s should be scatter-eligible", op)
		}
	}
	// Halo opcodes, reductions and the cross-coupled wavelet must not
	// scatter: standalone partition execution changes their semantics.
	for _, op := range []vop.Opcode{vop.OpSobel, vop.OpStencil, vop.OpSRAD, vop.OpLaplacian, vop.OpMeanFilter, vop.OpConv, vop.OpReduceSum, vop.OpReduceHist256, vop.OpFDWT97} {
		if ScatterEligible(op) {
			t.Errorf("%s must not be scatter-eligible", op)
		}
	}
}

// TestPlanScatterDeterministic: partition geometry is a pure function of
// (op, shape, fanout) — two plans for equal-shaped VOPs coincide region by
// region, and the pricing is stable.
func TestPlanScatterDeterministic(t *testing.T) {
	mk := func() *vop.VOP {
		a := tensor.NewMatrix(96, 64)
		b := tensor.NewMatrix(64, 48)
		for i := range a.Data {
			a.Data[i] = float64(i%23) - 11
		}
		for i := range b.Data {
			b.Data[i] = float64(i%19) - 9
		}
		v, err := vop.New(vop.OpGEMM, a, b)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	p1, err := PlanScatter(mk(), 4)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := PlanScatter(mk(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Regions) != len(p2.Regions) || len(p1.Regions) < 2 {
		t.Fatalf("plans split into %d and %d parts", len(p1.Regions), len(p2.Regions))
	}
	for i := range p1.Regions {
		if p1.Regions[i] != p2.Regions[i] {
			t.Fatalf("partition %d region %v vs %v", i, p1.Regions[i], p2.Regions[i])
		}
	}
	if p1.Bytes != p2.Bytes || p1.Bytes <= 0 {
		t.Fatalf("plan bytes %d vs %d", p1.Bytes, p2.Bytes)
	}
	if p1.TransferSeconds != p2.TransferSeconds || p1.TransferSeconds <= 0 {
		t.Fatalf("plan transfer %g vs %g", p1.TransferSeconds, p2.TransferSeconds)
	}
	// Geometry needs shapes only: the plan of the request as the router sees
	// it, indexed and never decoded, is the plan of the tensors — and prices
	// what the tensor path shipped: four 24-row bands of A, B with each, four
	// 24×48 result blocks.
	p3, err := PlanScatter(shapeVOP(vop.OpGEMM, []wire.Matrix{{Rows: 96, Cols: 64}, {Rows: 64, Cols: 48}}), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p3.Regions, p1.Regions) || p3.Bytes != p1.Bytes || p3.Rows != 96 || p3.Cols != 48 {
		t.Fatalf("shape-only plan %+v, tensor plan %+v", p3, p1)
	}
	if want := int64(8 * (96*64 + 4*64*48 + 96*48)); p1.Bytes != want {
		t.Fatalf("plan prices %d bytes, want %d", p1.Bytes, want)
	}
}

func TestPlanScatterRefusesIneligible(t *testing.T) {
	in := tensor.NewMatrix(64, 64)
	v, err := vop.New(vop.OpSobel, in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PlanScatter(v, 4); err == nil {
		t.Fatal("PlanScatter accepted a halo opcode")
	}
}

// newSessionBackend boots a real shmtserved stack (session + serve mux) and
// returns its host:port. MaxBatch 1 keeps every partition its own scheduling
// round, so results depend only on the partition's own content — the
// determinism the placement-invariance property rides on.
func newSessionBackend(t *testing.T) string {
	t.Helper()
	sess, err := shmt.NewSession(shmt.Config{Seed: 1, TargetPartitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(sess, serve.Config{MaxBatch: 1, MaxLinger: time.Millisecond, QueueDepth: 64})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown(context.Background())
		sess.Close()
	})
	return strings.TrimPrefix(ts.URL, "http://")
}

func quietPool(t *testing.T, seeds ...string) *Pool {
	t.Helper()
	p, err := NewPool(PoolConfig{ProbeInterval: time.Hour}, seeds, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// requestBody is v as a client's encoding/json would send it.
func requestBody(t *testing.T, v *vop.VOP) []byte {
	t.Helper()
	req := wire.Request{Op: v.Op.String(), Attrs: v.Attrs}
	for _, in := range v.Inputs {
		req.Inputs = append(req.Inputs, wire.FromTensor(in))
	}
	body, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// scatterGather takes body down the router's scatter path — index, plan,
// scatterExecute, WriteGathered — on pool and returns the reply
// as the client reads it.
func scatterGather(t *testing.T, pool *Pool, body []byte, fanout int, traceID string, timeout time.Duration) (*tensor.Matrix, *ScatterPlan, scatterOutcome) {
	t.Helper()
	req, err := wire.IndexRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	defer req.Release()
	op, err := req.Opcode()
	if err != nil {
		t.Fatal(err)
	}
	v := shapeVOP(op, req.Inputs)
	plan, err := PlanScatter(v, fanout)
	if err != nil {
		t.Fatal(err)
	}
	parts, oc, err := scatterExecute(context.Background(), pool, plan, v, req, traceID, timeout)
	if err != nil {
		t.Fatal(err)
	}
	defer releaseParts(parts)
	rec := httptest.NewRecorder()
	wire.WriteGathered(rec, plan.Rows, plan.Cols, parts, oc.makespan)
	var resp wire.Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.HLOPs != len(plan.Regions) || resp.BatchSize != 1 {
		t.Fatalf("gathered reply counts %d HLOPs in a batch of %d", resp.HLOPs, resp.BatchSize)
	}
	out, err := tensor.FromSlice(resp.Output.Rows, resp.Output.Cols, resp.Output.Data)
	if err != nil {
		t.Fatal(err)
	}
	return out, plan, oc
}

// TestScatterPlacementInvariance: the same scatter plan executed across two
// backends, on one backend, and partition-by-partition through a local
// session produces bit-identical outputs — cross-node placement does not
// change numerics, because partition geometry (not placement) determines
// them.
func TestScatterPlacementInvariance(t *testing.T) {
	a := tensor.NewMatrix(96, 64)
	b := tensor.NewMatrix(64, 48)
	for i := range a.Data {
		a.Data[i] = float64(i%23) - 11
	}
	for i := range b.Data {
		b.Data[i] = float64(i%19)/4 - 2
	}
	v, err := vop.New(vop.OpGEMM, a, b)
	if err != nil {
		t.Fatal(err)
	}
	body := requestBody(t, v)

	pool2 := quietPool(t, newSessionBackend(t), newSessionBackend(t))
	pool1 := quietPool(t, newSessionBackend(t))

	out2, plan, oc2 := scatterGather(t, pool2, body, 4, "trace-scatter-2", 30*time.Second)
	if len(plan.Regions) != 4 || oc2.backends != 2 {
		t.Fatalf("two-node scatter used %d backends over %d partitions", oc2.backends, len(plan.Regions))
	}
	out1, _, oc1 := scatterGather(t, pool1, body, 4, "trace-scatter-1", 30*time.Second)
	if oc1.backends != 1 {
		t.Fatalf("one-node scatter used %d backends", oc1.backends)
	}
	if !out2.Equal(out1) {
		t.Fatal("scatter across 2 nodes differs from the same plan on 1 node")
	}

	// Local reference: the partitions of the same geometry, cut from the
	// tensors, through a fresh local session, gathered as tensors.
	sess, err := shmt.NewSession(shmt.Config{Seed: 1, TargetPartitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	parts, err := hlop.Partition(v, hlop.Spec{TargetPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	rows, cols := v.OutputShape()
	local := tensor.NewMatrix(rows, cols)
	for i, h := range parts {
		if h.Region != plan.Regions[i] {
			t.Fatalf("partition %d is %v, the plan says %v", i, h.Region, plan.Regions[i])
		}
		dense := make([]*tensor.Matrix, len(h.Inputs))
		for j, in := range h.Inputs {
			dense[j] = in.Clone()
		}
		rep, err := sess.Execute(h.Op, dense, h.Attrs)
		if err != nil {
			t.Fatalf("partition %d: %v", i, err)
		}
		if err := tensor.CopyIn(local, h.Region, rep.Output); err != nil {
			t.Fatalf("partition %d gather: %v", i, err)
		}
	}
	if !out2.Equal(local) {
		t.Fatal("scattered execution differs from the local session running the same partitions")
	}
}

// TestScatterFailover: a partition whose round-robin home is failing lands
// on the other backend and the gather still completes.
func TestScatterFailover(t *testing.T) {
	good, bad := newFakeBackend(t), newFakeBackend(t)
	bad.fail.Store(true)
	pool, err := NewPool(PoolConfig{
		ProbeInterval: time.Hour,
		Breaker:       BreakerConfig{Threshold: 100}, // stay closed; exercise in-flight failover
	}, []string{good.addr(), bad.addr()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	a := tensor.NewMatrix(64, 64)
	b := tensor.NewMatrix(64, 64)
	for i := range a.Data {
		a.Data[i] = float64(i)
		b.Data[i] = 1
	}
	v, err := vop.New(vop.OpAdd, a, b)
	if err != nil {
		t.Fatal(err)
	}
	out, _, oc := scatterGather(t, pool, requestBody(t, v), 4, "trace-failover", 10*time.Second)
	if oc.backends != 1 {
		t.Fatalf("scatter used %d backends, want only the healthy one", oc.backends)
	}
	for i, got := range out.Data {
		if got != float64(i)+1 {
			t.Fatalf("element %d = %g, want %g", i, got, float64(i)+1)
		}
	}
}

// TestRouterScatterEndToEnd: a large eligible VOP entering the router
// scatters across both backends and reassembles correctly on the wire.
func TestRouterScatterEndToEnd(t *testing.T) {
	b1, b2 := newFakeBackend(t), newFakeBackend(t)
	_, ts := newTestRouter(t, RouterConfig{
		Seeds:            []string{b1.addr(), b2.addr()},
		ScatterThreshold: 1024,
		MaxFanout:        4,
		Pool:             PoolConfig{ProbeInterval: time.Hour},
	})

	resp, body := postExecute(t, ts.URL, addBody(64), nil)
	if resp.StatusCode != 200 {
		t.Fatalf("scatter request: status %d: %s", resp.StatusCode, body)
	}
	parts, err := strconv.Atoi(resp.Header.Get(ScatterHeader))
	if err != nil || parts < 2 {
		t.Fatalf("scatter header %q, want >= 2 partitions", resp.Header.Get(ScatterHeader))
	}
	var out wire.Response
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Output.Rows != 64 || out.Output.Cols != 64 {
		t.Fatalf("output shape %dx%d", out.Output.Rows, out.Output.Cols)
	}
	for i, got := range out.Output.Data {
		if got != 2*float64(i) {
			t.Fatalf("element %d = %g, want %g", i, got, 2*float64(i))
		}
	}
	if b1.requests.Load() == 0 || b2.requests.Load() == 0 {
		t.Fatalf("scatter did not fan out: backends saw %d and %d partitions",
			b1.requests.Load(), b2.requests.Load())
	}
}

// TestKeyString is a tiny guard on the statusz/debug formatting.
func TestKeyString(t *testing.T) {
	k := Key{Tenant: "acme", Op: "GEMM", Rows: 1024, Cols: 512}
	if got, want := k.String(), "acme/GEMM/1024x512"; got != want {
		t.Fatalf("Key.String() = %q, want %q", got, want)
	}
	_ = fmt.Sprintf("%v", k)
}

// TestScatteredMakespanIsVirtual: a scattered reply's makespan_seconds is
// virtual time, composed from its partitions' replies as the backends ran
// them — the busiest backend's summed partition makespans plus the plan's
// priced wire transfer — and not the router's wall clock, so the same
// request reports the same bits on every run.
func TestScatteredMakespanIsVirtual(t *testing.T) {
	backends := []string{newSessionBackend(t), newSessionBackend(t)}
	_, ts := newTestRouter(t, RouterConfig{
		Seeds:            backends,
		ScatterThreshold: 64,
		MaxFanout:        2,
		Pool:             PoolConfig{ProbeInterval: time.Hour},
	})
	in := tensor.NewMatrix(256, 256)
	for i := range in.Data {
		in.Data[i] = float64(i%29)/7 - 2
	}
	v, err := vop.New(vop.OpRelu, in)
	if err != nil {
		t.Fatal(err)
	}
	body := requestBody(t, v)

	// The composition, from the partitions sent straight to the backends in
	// the router's round-robin order: partition i to backend i. Each is sent
	// twice, so that it is the replay of a cached plan, as it will be for
	// every scattered run after.
	plan, err := PlanScatter(v, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Regions) != 2 {
		t.Fatalf("%d partitions, want 2", len(plan.Regions))
	}
	req, err := wire.IndexRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	var busiest float64
	for i, reg := range plan.Regions {
		pbody := req.Partition(v.Op, inputRegions(v, reg))
		var pres wire.Response
		for range 2 {
			resp, got := postExecute(t, "http://"+backends[i], string(pbody.Bytes()), nil)
			if resp.StatusCode != 200 {
				t.Fatalf("partition %d: status %d: %.200s", i, resp.StatusCode, got)
			}
			if err := json.Unmarshal(got, &pres); err != nil {
				t.Fatal(err)
			}
		}
		pbody.Release()
		busiest = max(busiest, pres.MakespanSeconds)
	}
	want := busiest + plan.TransferSeconds

	for run := 0; run < 3; run++ {
		resp, got := postExecute(t, ts.URL, string(body), nil)
		if resp.StatusCode != 200 || resp.Header.Get(ScatterHeader) != "2" {
			t.Fatalf("run %d: status %d, scatter %q: %.200s", run, resp.StatusCode, resp.Header.Get(ScatterHeader), got)
		}
		var out wire.Response
		if err := json.Unmarshal(got, &out); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(out.MakespanSeconds) != math.Float64bits(want) {
			t.Fatalf("run %d: makespan_seconds %v, want %v (partitions %v + transfer %v)",
				run, out.MakespanSeconds, want, busiest, plan.TransferSeconds)
		}
	}
}
