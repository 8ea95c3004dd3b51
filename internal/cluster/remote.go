package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"shmt/internal/device"
	"shmt/internal/interconnect"
	"shmt/internal/serve"
	"shmt/internal/tensor"
	"shmt/internal/vop"
	"shmt/internal/wire"
)

// RemoteExecutor presents one shmtserved backend as a device.Device: a
// network-attached executor whose interconnect link is the cluster network.
// The scatter-gather planner prices partition placement on it with the same
// Link.TransferTime cost model the in-process scheduler uses for GPU and TPU
// transfers — a remote node is just a device behind a slower, higher-latency
// link.
//
// Execute round-trips one VOP through the backend's POST /v1/execute. The
// backend's own SHMT session does the intra-node partitioning and device
// placement; the adapter neither knows nor cares what silicon serves it.
type RemoteExecutor struct {
	backend *Backend
	client  *http.Client
	timeout time.Duration
}

var _ device.Device = (*RemoteExecutor)(nil)

// NewRemoteExecutor wraps a backend. timeout bounds one execute round-trip
// (<= 0 means no adapter-imposed bound beyond the request context).
func NewRemoteExecutor(b *Backend, client *http.Client, timeout time.Duration) *RemoteExecutor {
	if client == nil {
		client = http.DefaultClient
	}
	return &RemoteExecutor{backend: b, client: client, timeout: timeout}
}

// Name identifies the device instance by its node address.
func (r *RemoteExecutor) Name() string { return "remote:" + r.backend.addr }

// Kind classifies the executor as a network-attached node.
func (r *RemoteExecutor) Kind() device.Kind { return device.Remote }

// AccuracyRank is 0: the backend restores results to the application's
// float64 precision before they cross the wire, same as local devices.
func (r *RemoteExecutor) AccuracyRank() int { return 0 }

// Supports reports whether the opcode exists on the wire — every named
// opcode is servable by a shmtserved backend.
func (r *RemoteExecutor) Supports(op vop.Opcode) bool {
	_, ok := vop.Parse(op.String())
	return ok
}

// Execute round-trips the VOP through the backend.
func (r *RemoteExecutor) Execute(op vop.Opcode, inputs []*tensor.Matrix, attrs map[string]float64) (*tensor.Matrix, error) {
	return r.ExecuteInto(op, inputs, nil, attrs)
}

// ExecuteInto is Execute with an optional destination.
func (r *RemoteExecutor) ExecuteInto(op vop.Opcode, inputs []*tensor.Matrix, dst *tensor.Matrix, attrs map[string]float64) (*tensor.Matrix, error) {
	return device.Dispatch(r, op, inputs, dst, attrs)
}

// Admit implements device.Device: whether the backend takes the request is
// only known once it has answered, so nothing is refused up front.
func (r *RemoteExecutor) Admit(vop.Opcode, []*tensor.Matrix) (device.Ticket, error) {
	return device.Ticket{}, nil
}

// Compute is the round trip; the result always arrives in a fresh buffer off
// the wire, so when dst is non-nil the adapter copies through it (the
// caller's result != dst fallback also works).
func (r *RemoteExecutor) Compute(_ device.Ticket, op vop.Opcode, inputs []*tensor.Matrix, dst *tensor.Matrix, attrs map[string]float64) (*tensor.Matrix, error) {
	out, err := r.Do(context.Background(), "", op, inputs, attrs)
	if err != nil || dst == nil {
		return out, err
	}
	if err := dst.CopyFrom(out); err != nil {
		return out, nil // shape mismatch: let the caller's fallback handle it
	}
	return dst, nil
}

// Do is Execute with a context and a trace ID to thread through
// X-SHMT-Trace-Id, so a scattered request's partitions share the parent's
// trace across nodes.
func (r *RemoteExecutor) Do(ctx context.Context, traceID string, op vop.Opcode, inputs []*tensor.Matrix, attrs map[string]float64) (*tensor.Matrix, error) {
	req := wire.Request{Op: op.String(), Attrs: attrs, Inputs: make([]wire.Matrix, len(inputs))}
	// The effective round-trip bound is the tighter of the adapter's
	// configured timeout and whatever deadline the caller's context already
	// carries (a client's timeout_ms on the scatter path). Both sides see
	// it: the context bounds the HTTP call and the wire timeout_ms tells
	// the backend to stop working when the client will no longer wait.
	to := r.timeout
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl)
		if rem <= 0 {
			rem = time.Millisecond
		}
		if to <= 0 || rem < to {
			to = rem
		}
	}
	if to > 0 {
		ms := int(to / time.Millisecond)
		if ms < 1 {
			ms = 1
		}
		req.TimeoutMs = ms
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, to)
		defer cancel()
	}
	for i, m := range inputs {
		req.Inputs[i] = wire.FromTensor(m)
	}
	body, err := wire.EncodeRequest(&req)
	if err != nil {
		return nil, fmt.Errorf("cluster: marshal %s for %s: %w", op, r.backend.addr, err)
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, r.backend.base+"/v1/execute", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		hr.Header.Set(serve.TraceHeader, traceID)
	}
	resp, err := r.client.Do(hr)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s on %s: %w", op, r.backend.addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var we wire.Error
		msg := ""
		if b, rerr := io.ReadAll(io.LimitReader(resp.Body, 4096)); rerr == nil {
			if json.Unmarshal(b, &we) == nil {
				msg = we.Error
			} else {
				msg = string(b)
			}
		}
		return nil, &RemoteError{Backend: r.backend.addr, Status: resp.StatusCode, Msg: msg}
	}
	out, err := wire.ReadResponse(resp)
	if err != nil {
		return nil, fmt.Errorf("cluster: decode %s response from %s: %w", op, r.backend.addr, err)
	}
	m, err := tensor.FromSlice(out.Output.Rows, out.Output.Cols, out.Output.Data)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s output from %s: %w", op, r.backend.addr, err)
	}
	return m, nil
}

// ExecTime models the remote node's execution latency for n elements —
// transfers excluded, exactly as for local devices (the ClusterNet link
// prices those). The node's internal fleet is opaque, so the model uses the
// opcode's calibrated GPU-class rate.
func (r *RemoteExecutor) ExecTime(op vop.Opcode, n int) float64 {
	return float64(n) / device.Throughput(device.Remote, op)
}

// DispatchOverhead is the per-request setup cost on the cluster network.
func (r *RemoteExecutor) DispatchOverhead() float64 { return interconnect.ClusterNet.LatencySec }

// Link is the router→backend network path.
func (r *RemoteExecutor) Link() interconnect.Link { return interconnect.ClusterNet }

// ElemBytes is the wire element width: float64 payloads.
func (r *RemoteExecutor) ElemBytes() int { return tensor.ElemSize }

// MemoryBytes is 0: a backend node partitions internally, the router never
// needs to size partitions to a remote memory budget.
func (r *RemoteExecutor) MemoryBytes() int64 { return 0 }

// RemoteError is a non-2xx backend response.
type RemoteError struct {
	Backend string
	Status  int
	Msg     string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("cluster: backend %s: http %d: %s", e.Backend, e.Status, e.Msg)
}
