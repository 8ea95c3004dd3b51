package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"shmt/internal/hlop"
	"shmt/internal/interconnect"
	"shmt/internal/serve"
	"shmt/internal/telemetry"
	"shmt/internal/tensor"
	"shmt/internal/vop"
	"shmt/internal/wire"
)

// ScatterEligible reports whether a VOP of this opcode can be scattered
// across backends: each partition must be executable as an independent VOP
// whose result is bit-identical to the same partition inside a whole-VOP run.
// That excludes halo opcodes (a partition executed standalone clamps at its
// own borders, not the matrix's), reductions (partials need a combine step),
// and FDWT97 (the multi-level transform couples whole rows and columns).
// What remains: element-wise vector ops, the per-option PDE solve, GEMM row
// bands, per-row FFT, and the 8x8-tile DCT.
func ScatterEligible(op vop.Opcode) bool {
	switch op {
	case vop.OpAdd, vop.OpSub, vop.OpMultiply, vop.OpLog, vop.OpSqrt, vop.OpRsqrt,
		vop.OpTanh, vop.OpRelu, vop.OpMax, vop.OpMin, vop.OpParabolicPDE,
		vop.OpGEMM, vop.OpFFT, vop.OpDCT8x8:
		return true
	}
	return false
}

// ScatterPlan is the priced partitioning of one very large VOP across the
// cluster: geometry only, no tensor.
type ScatterPlan struct {
	// Regions are the partitions, in hlop.Regions' order: output space for
	// GEMM (a row band as wide as B), input space otherwise.
	Regions []tensor.Region
	// Rows and Cols are the shape of the gathered output.
	Rows, Cols int
	// Bytes is the total wire payload: every partition's inputs plus its
	// result block, at host element width.
	Bytes int64
	// TransferSeconds is the modelled ClusterNet cost of moving Bytes,
	// partition by partition — the same Link.TransferTime pricing the
	// in-process scheduler applies to device transfers, plus the per-request
	// dispatch setup.
	TransferSeconds float64
}

// PlanScatter partitions v into ~fanout independent partitions and prices
// the wire traffic. It reads v's opcode and input shapes only (shapeVOP
// builds such a v from an indexed request). Partition geometry is a pure
// function of (op, shape, fanout) — hlop.Regions is deterministic — which is
// what makes scatter placement-invariant: the same partitions execute
// wherever they land.
func PlanScatter(v *vop.VOP, fanout int) (*ScatterPlan, error) {
	if !ScatterEligible(v.Op) {
		return nil, fmt.Errorf("cluster: %s is not scatter-eligible", v.Op)
	}
	if fanout < 1 {
		fanout = 1
	}
	regs, err := hlop.Regions(v, hlop.Spec{TargetPartitions: fanout})
	if err != nil {
		return nil, err
	}
	p := &ScatterPlan{Regions: regs}
	p.Rows, p.Cols = v.OutputShape()
	for _, reg := range regs {
		b := reg.Bytes(tensor.ElemSize)
		for _, in := range inputRegions(v, reg) {
			b += in.Bytes(tensor.ElemSize)
		}
		p.Bytes += b
		p.TransferSeconds += interconnect.ClusterNet.TransferTime(b) + interconnect.ClusterNet.LatencySec
	}
	return p, nil
}

// shapeVOP is the VOP of an indexed request as far as geometry goes: the
// opcode and inputs of the right shapes that hold no data.
func shapeVOP(op vop.Opcode, inputs []wire.Matrix) *vop.VOP {
	v := &vop.VOP{Op: op, Inputs: make([]*tensor.Matrix, len(inputs))}
	for k, m := range inputs {
		v.Inputs[k] = &tensor.Matrix{Rows: m.Rows, Cols: m.Cols}
	}
	return v
}

// inputRegions maps a partition's region to the region of each input it
// reads: GEMM pairs a row band of A with all of B, every other eligible
// opcode reads its own region of every input.
func inputRegions(v *vop.VOP, reg tensor.Region) []tensor.Region {
	ins := make([]tensor.Region, len(v.Inputs))
	for k := range ins {
		ins[k] = reg
	}
	if v.Op == vop.OpGEMM {
		a, b := v.Inputs[0], v.Inputs[1]
		ins[0] = tensor.Region{Row: reg.Row, Height: reg.Height, Width: a.Cols}
		ins[1] = tensor.Region{Height: b.Rows, Width: b.Cols}
	}
	return ins
}

// scatterOutcome summarises one scattered execution for the response body.
type scatterOutcome struct {
	backends int
	// makespan is the scattered request's virtual makespan in seconds: the
	// backends run side by side, each its partitions one after another, and
	// the partitions' wire traffic is priced on top — the busiest backend's
	// summed partition makespans plus ScatterPlan.TransferSeconds.
	makespan float64
}

// errNoBackends means every dispatch target for a partition was exhausted.
var errNoBackends = errors.New("cluster: no backend available")

// scatterExecute runs the plan over the request req indexes: each partition's
// body is spliced from the client's text once, partitions go round-robin over
// the healthy backends, each with in-flight failover to the next backend in
// the rotation, and the replies come back as text, in plan order, for
// wire.WriteGathered to splice; the caller releases them. The first partition
// to fail for good cancels the others: the error does not wait for the
// slowest leg.
func scatterExecute(ctx context.Context, pool *Pool, plan *ScatterPlan, v *vop.VOP, req *wire.IndexedRequest, traceID string, timeout time.Duration) ([]wire.Part, scatterOutcome, error) {
	backends := pool.Healthy()
	if len(backends) == 0 {
		return nil, scatterOutcome{}, errNoBackends
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	telemetry.RouterScatterRequests.Inc()
	telemetry.RouterScatterTransferVirtualNanos.Add(int64(plan.TransferSeconds * 1e9))

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		served   = make([]string, len(plan.Regions)) // the backend of each partition
		parts    = make([]wire.Part, len(plan.Regions))
	)
	for i, reg := range plan.Regions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := req.Partition(v.Op, inputRegions(v, reg))
			defer body.Release()
			reply, addr, err := dispatchPartition(ctx, pool, backends, i, reg, body, traceID, timeout)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("partition %d (%v): %w", i, reg, err)
					cancel()
				}
				return
			}
			parts[i] = wire.Part{Region: reg, Reply: reply}
			served[i] = addr
		}()
	}
	wg.Wait()
	if firstErr != nil {
		releaseParts(parts)
		return nil, scatterOutcome{}, firstErr
	}
	// Sum in plan order, so that the same replies compose to the same bits
	// whichever came back first.
	busy := make(map[string]float64, len(backends))
	for i, addr := range served {
		busy[addr] += parts[i].Reply.MakespanSeconds
	}
	oc := scatterOutcome{backends: len(busy)}
	for _, b := range busy {
		oc.makespan = max(oc.makespan, b)
	}
	oc.makespan += plan.TransferSeconds
	telemetry.RouterScatterFanout.Observe(float64(oc.backends))
	return parts, oc, nil
}

func releaseParts(parts []wire.Part) {
	for _, p := range parts {
		p.Reply.Release()
	}
}

// dispatchPartition sends one partition to its round-robin home backend,
// walking the rotation on retryable failures, and returns the reply — checked
// to be the region's shape — and the backend that served it.
func dispatchPartition(ctx context.Context, pool *Pool, backends []*Backend, i int, reg tensor.Region, body *wire.Body, traceID string, timeout time.Duration) (*wire.Reply, string, error) {
	var lastErr error
	for attempt := 0; attempt < len(backends); attempt++ {
		b := backends[(i+attempt)%len(backends)]
		if b.Quarantined() {
			continue
		}
		if attempt > 0 {
			telemetry.RouterFailovers.Inc()
		}
		release := pool.Acquire(b)
		reply, err := postPartition(ctx, pool.Client(), b, body, traceID, timeout)
		release()
		if err != nil {
			lastErr = err
			if !retryableRemote(err) {
				return nil, "", err
			}
			if breakerWorthy(err) {
				pool.NoteFailure(b)
			}
			continue
		}
		pool.NoteSuccess(b)
		if reply.Rows != reg.Height || reply.Cols != reg.Width {
			reply.Release()
			return nil, "", fmt.Errorf("cluster: partition %d result %dx%d does not match region %v",
				i, reply.Rows, reply.Cols, reg)
		}
		return reply, b.addr, nil
	}
	if lastErr == nil {
		lastErr = errNoBackends
	}
	return nil, "", lastErr
}

// postPartition round-trips one partition body through b's POST /v1/execute,
// threading traceID through X-SHMT-Trace-Id so that a scattered request's
// partitions share the parent's trace across nodes.
func postPartition(ctx context.Context, client *http.Client, b *Backend, body *wire.Body, traceID string, timeout time.Duration) (*wire.Reply, error) {
	// The round-trip bound is the tighter of the dispatch timeout and
	// whatever deadline the context already carries (a client's timeout_ms).
	// Both sides see it: the context bounds the HTTP call and the wire
	// timeout_ms tells the backend to stop working when the client will no
	// longer wait.
	if dl, ok := ctx.Deadline(); ok {
		timeout = min(timeout, max(time.Until(dl), time.Millisecond))
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	hr, err := wire.NewPost(ctx, b.base+"/v1/execute", body, max(int(timeout/time.Millisecond), 1))
	if err != nil {
		return nil, err
	}
	if traceID != "" {
		hr.Header.Set(serve.TraceHeader, traceID)
	}
	resp, err := client.Do(hr)
	if err != nil {
		return nil, fmt.Errorf("cluster: partition on %s: %w", b.addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var we wire.Error
		msg := ""
		if raw, rerr := io.ReadAll(io.LimitReader(resp.Body, 4096)); rerr == nil {
			if json.Unmarshal(raw, &we) == nil {
				msg = we.Error
			} else {
				msg = string(raw)
			}
		}
		return nil, &RemoteError{Backend: b.addr, Status: resp.StatusCode, Msg: msg}
	}
	reply, err := wire.ReadReply(resp)
	if err != nil {
		return nil, fmt.Errorf("cluster: partition reply from %s: %w", b.addr, err)
	}
	return reply, nil
}

// RemoteError is a non-2xx backend response.
type RemoteError struct {
	Backend string
	Status  int
	Msg     string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("cluster: backend %s: http %d: %s", e.Backend, e.Status, e.Msg)
}

// retryableRemote reports whether a dispatch failure may succeed on another
// backend: transport errors and 5xx (a dying or draining node) do; a 429
// shed does too (the replica may have queue room); other 4xx are the
// request's own fault and fail fast, as does the client going away.
func retryableRemote(err error) bool {
	var re *RemoteError
	if errors.As(err, &re) {
		return re.Status >= 500 || re.Status == 429
	}
	return !errors.Is(err, context.Canceled)
}

// breakerWorthy reports whether a failure indicts the backend itself. A 429
// shed is the backend protecting itself under load — retrying elsewhere is
// right, quarantining the node is not.
func breakerWorthy(err error) bool {
	var re *RemoteError
	if errors.As(err, &re) && re.Status == 429 {
		return false
	}
	return true
}
