// Package wire is the single definition of the POST /v1/execute schema —
// request, response, matrix, error — shared by the backend tier
// (internal/serve) and the router tier (internal/cluster).
//
//	POST /v1/execute
//	{"op":"add","inputs":[{"rows":2,"cols":2,"data":[1,2,3,4]},
//	                      {"rows":2,"cols":2,"data":[5,6,7,8]}],
//	 "attrs":{},"timeout_ms":1000}
//
// A request is one VOP: opcode by name, dense row-major inputs, optional
// scalar attrs and deadline. A response carries the output matrix plus the
// round's accounting.
//
// Decoding is a hand-written strict-JSON scanner for exactly this schema
// (decode.go), and each tier runs it only as far as its job goes. A backend
// converts: DecodeRequest knows where the number arrays are and parses them
// straight into a slice allocated once at rows×cols. A router places:
// PeekRequest reads the head — the opcode and the first input's shape — and
// stops, so the bytes after it are validated once, by the tier that converts
// them, whose 400 the router relays. A router about to scatter validates
// without converting: IndexRequest (index.go) scans the whole body, converts
// no number and records where each is, so partitions and the gathered reply
// are spliced from the text, and no tier but the one that computes converts a
// float. All three walk a data array in the same loop (scanner.elements).
//
// Encoding a reply is formatting its output tensor, and WriteResponse does
// that itself: appendFloat (ftoa.go) writes each element exactly as
// encoding/json would — the splicing above depends on it — with digits from
// Schubfach over a powers-of-ten table the package computes as it
// initialises, at less than half of strconv's cost per element. encoding/json still formats the few
// scalars and annexes that follow the tensor (appendTail), the error bodies
// and the status pages.
// http.go holds what both tiers do around the codec: the body limit, the
// recycled buffers, the status of a refusal, the JSON replies.
package wire

import (
	"errors"
	"fmt"
	"time"

	"shmt/internal/core"
	"shmt/internal/telemetry"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// MaxBodyBytes caps a /v1/execute body on both tiers (413 beyond it). It sits
// above the two 2²¹-element JSON inputs the router's default scatter
// threshold implies, so every request the cluster is sized for fits.
const MaxBodyBytes = 256 << 20

// Matrix is a dense row-major tensor on the wire.
type Matrix struct {
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Data []float64 `json:"data"`
}

// Request is the /v1/execute request body.
type Request struct {
	Op        string             `json:"op"`
	Inputs    []Matrix           `json:"inputs"`
	Attrs     map[string]float64 `json:"attrs,omitempty"`
	TimeoutMs int                `json:"timeout_ms,omitempty"`
	// tensors[i] is the free-list tensor DecodeRequest put Inputs[i].Data in.
	tensors []*tensor.Matrix
}

// Response is the /v1/execute response body. Clients may rely on the key
// order: trace, when present, is the last key.
type Response struct {
	Output          Matrix         `json:"output"`
	HLOPs           int            `json:"hlops"`
	MakespanSeconds float64        `json:"makespan_seconds"`
	BatchSize       int            `json:"batch_size"`
	Degraded        *core.Degraded `json:"degraded,omitempty"`
	// Trace carries the request's ID and stage breakdown when the backend
	// traces requests; absent otherwise.
	Trace *Trace `json:"trace,omitempty"`
}

// Trace is the response's optional tracing annex.
type Trace struct {
	TraceID      string                   `json:"trace_id"`
	Tenant       string                   `json:"tenant,omitempty"`
	TotalSeconds float64                  `json:"total_seconds"`
	Stages       telemetry.StageBreakdown `json:"stages"`
	// DeadlinePressure is the QAWS criticality boost the request's deadline
	// earned (0 when the backend's critical deadline is off or the deadline
	// is loose); CriticalHLOPs/DeviceHLOPs show where its partitions actually
	// ran, so a tight-deadline request can verify it kept accurate devices.
	DeadlinePressure float64        `json:"deadline_pressure,omitempty"`
	CriticalHLOPs    int            `json:"critical_hlops"`
	DeviceHLOPs      map[string]int `json:"device_hlops,omitempty"`
	// EncodeStart, when set, is when the handler began building the reply:
	// WriteResponse then fills Stages.Encode with the time from there to the
	// moment the output has been formatted — the trace block is written
	// after it — and extends TotalSeconds to the same instant.
	EncodeStart time.Time `json:"-"`
}

// Error is the body of every non-2xx reply.
type Error struct {
	Error string `json:"error"`
}

// FromTensor wraps m for the wire, copying only when m is a strided view.
func FromTensor(m *tensor.Matrix) Matrix {
	if !m.IsContiguous() {
		m = m.Clone()
	}
	return Matrix{Rows: m.Rows, Cols: m.Cols, Data: m.Data[:m.Len()]}
}

// Opcode resolves the request's opcode and refuses a request with no inputs;
// it is all the validation a request's head supports.
func (r *Request) Opcode() (vop.Opcode, error) {
	op, ok := vop.Parse(r.Op)
	if !ok {
		return 0, fmt.Errorf("unknown op %q", r.Op)
	}
	if len(r.Inputs) == 0 {
		return 0, errors.New("no inputs")
	}
	return op, nil
}

// VOP builds the request's VOP, checking arity and shapes with the engine's
// own vop.Validate — so a request the engine would refuse is refused at
// admission, alone, instead of failing the batch round it was coalesced into.
func (r *Request) VOP() (*vop.VOP, error) {
	op, err := r.Opcode()
	if err != nil {
		return nil, err
	}
	inputs := make([]*tensor.Matrix, len(r.Inputs))
	for i, m := range r.Inputs {
		if i < len(r.tensors) && r.tensors[i] != nil { // decoded, and checked, as this very tensor
			inputs[i] = r.tensors[i]
			continue
		}
		if inputs[i], err = tensor.FromSlice(m.Rows, m.Cols, m.Data); err != nil {
			return nil, fmt.Errorf("input %d: %w", i, err)
		}
	}
	v := &vop.VOP{Op: op, Inputs: inputs, Attrs: r.Attrs}
	return v, v.Validate()
}

// Release returns a decoded request's input tensors to the free list; their
// Data, and a VOP built from them, are dead afterwards. Forgetting it is safe,
// calling it before the last reader is done never is; a second call is a no-op.
func (r *Request) Release() {
	for i, t := range r.tensors {
		tensor.Recycle(t)
		r.Inputs[i].Data = nil
	}
	r.tensors = nil
}

// Timeout turns a request's timeout_ms into its deadline: the tier's maximum
// wait when the client sent none, a negative one, or one beyond that maximum.
func Timeout(ms int, max time.Duration) time.Duration {
	if ms <= 0 || int64(ms) > int64(max/time.Millisecond) {
		return max
	}
	return time.Duration(ms) * time.Millisecond
}
