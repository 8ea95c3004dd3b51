package shmt

import (
	"fmt"
	"math"

	"shmt/internal/core"
	"shmt/internal/vop"
)

// BatchRequest is one VOP within a multi-tenant batch submission.
type BatchRequest struct {
	// Op is the request's VOP.
	Op Op
	// Inputs are the request's input tensors.
	Inputs []*Matrix
	// Attrs are the request's kernel parameters.
	Attrs map[string]float64
	// Dst, when non-nil, receives the output (a reduction ignores it): a dense
	// matrix of the output's shape that the caller owns outright, overwritten
	// and returned as the report's Output. Reuse it, or the Inputs, only once
	// nothing reads that Output any more — forgetting to reuse is always safe,
	// reusing early never is. With nil the output is allocated, as always.
	Dst *Matrix
	// TraceID, when set, tags the engine spans this request produces so the
	// Perfetto export can stitch them to the serving layer's request lane.
	TraceID string
	// Tenant is the admission queue the request arrived through; it rides
	// along for attribution (the engine schedules by VOP, not tenant).
	Tenant string
	// DeadlinePressure (0..1) encodes how tight the request's deadline is:
	// QAWS raises the request's critical fraction with it, steering more
	// partitions to high-accuracy devices. 0 means no deadline pressure.
	// Values are quantized to 1/16 steps so the plan cache's key space
	// stays bounded.
	DeadlinePressure float64
}

// BatchResult carries the per-request reports and the batch-wide accounting
// of one ExecuteBatch round.
type BatchResult = core.BatchResult

// ExecuteBatch co-schedules several independent VOPs in one round: their
// HLOPs share the device queues and the stealing pool, so a device that
// finishes one request's partitions immediately continues with another's —
// the oversubscription behaviour §5.6 credits for hiding data-exchange
// latency. Results return per request, with batch-wide latency and energy.
func (s *Session) ExecuteBatch(reqs []BatchRequest) (*BatchResult, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("shmt: empty batch")
	}
	var one [1]*vop.VOP // a lone request's slice costs no allocation
	vops := one[:]
	if len(reqs) > 1 {
		vops = make([]*vop.VOP, len(reqs))
	}
	for i, r := range reqs {
		v, err := vop.New(r.Op, r.Inputs...)
		if err != nil {
			return nil, fmt.Errorf("shmt: batch request %d: %w", i, err)
		}
		for k, x := range r.Attrs {
			v.SetAttr(k, x)
		}
		if p := r.DeadlinePressure; p > 0 {
			if p > 1 {
				p = 1
			}
			v.DeadlinePressure = math.Round(p*16) / 16
		}
		v.TraceID, v.Dst = r.TraceID, r.Dst
		vops[i] = v
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	return s.eng.RunBatch(vops)
}
