package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync/atomic"

	"shmt"
	"shmt/internal/workload"
)

// shapeKind is the deployment shape a workload is driven through.
type shapeKind int

const (
	shapeLib     shapeKind = iota // shmt.Session called in process
	shapeServe                    // one serve.Server on loopback
	shapeCluster                  // cluster.Router + two serve.Server backends on loopback
)

// reqDef is one distinct request of a workload: an op on one input shape.
type reqDef struct {
	op         shmt.Op
	rows, cols int
	weight     int     // occurrences per client cycle
	tol        float64 // highest accepted MAPE (fraction) against the exact CPU reference
	scatter    bool    // the router is expected to scatter-gather it
}

// workloadDef is a workload: a deployment shape, a client count and a request
// mix. Everything in it is fixed; only the tensor values and the order of the
// mix come from -seed.
type workloadDef struct {
	name    string
	why     string
	shape   shapeKind
	clients int
	reqs    []reqDef
	// freshPerCycle is how many slots of a client cycle carry a shape the
	// deployment has never seen (plan-cache miss path); freshLo..freshHi
	// bound the side lengths those shapes are drawn from.
	freshPerCycle    int
	freshLo, freshHi int
	// warmCycles is the fixed warm-up length of set-up, in client cycles,
	// sized so that a set-up is 1.3 to 2.3 s of program work on a quiet host:
	// three of them must fit beside the measured loop in the driver's time
	// cap even when the host is slow.
	warmCycles int
	// quietShareFloor is the lowest tenth of host.quiet_op_share this
	// workload showed in the runs the benchmark was defined with; a run
	// below it flags itself noisy.
	quietShareFloor float64
	// ladderCalls is how many solo calls the traced pass makes per request
	// and rung.
	ladderCalls int
}

// tol turns the MAPE (a fraction) a request showed when the benchmark was
// defined into its tolerance: twice that, and never below 1e-6, where float32
// rounding alone decides the value.
func tol(observed float64) float64 {
	if t := 2 * observed; t > 1e-6 {
		return t
	}
	return 1e-6
}

var workloads = []*workloadDef{
	{
		name:    "lib_compute",
		why:     "kernels, device quantisation and the engine do all the work; serve, cluster and wire do none",
		shape:   shapeLib,
		clients: 1,
		reqs: []reqDef{
			{op: shmt.OpGEMM, rows: 256, cols: 256, weight: 2, tol: tol(0.0007917)}, // twice: 7 slots keep p50 off a class boundary
			{op: shmt.OpSobel, rows: 640, cols: 640, weight: 1, tol: tol(0.03728)},
			{op: shmt.OpSRAD, rows: 512, cols: 512, weight: 1, tol: tol(0.0004117)},
			{op: shmt.OpFFT, rows: 768, cols: 512, weight: 1, tol: tol(0.02891)},
			{op: shmt.OpDCT8x8, rows: 640, cols: 640, weight: 1, tol: tol(0.02486)},
			{op: shmt.OpParabolicPDE, rows: 512, cols: 512, weight: 1, tol: tol(0.03922)},
		},
		warmCycles:      12,
		quietShareFloor: 0.20,
		ladderCalls:     10,
	},
	{
		name:    "serve_small",
		why:     "fixed per-request cost dominates: admission, WFQ, linger, plan replay and cold planning, net/http",
		shape:   shapeServe,
		clients: 2,
		reqs: []reqDef{
			{op: shmt.OpAdd, rows: 32, cols: 32, weight: 2, tol: tol(5.3e-08)},
			{op: shmt.OpAdd, rows: 64, cols: 64, weight: 2, tol: tol(0.004331)},
			{op: shmt.OpRelu, rows: 48, cols: 48, weight: 2, tol: tol(0.02206)},
			{op: shmt.OpRelu, rows: 64, cols: 64, weight: 2, tol: tol(0.00967)},
			{op: shmt.OpReduceSum, rows: 32, cols: 32, weight: 2, tol: tol(4.4e-09)},
			{op: shmt.OpReduceSum, rows: 64, cols: 64, weight: 2, tol: tol(9.434e-06)},
			{op: shmt.OpSobel, rows: 48, cols: 48, weight: 1, tol: tol(1.738e-06)},
			{op: shmt.OpSobel, rows: 64, cols: 64, weight: 2, tol: tol(1.785e-06)},
			{op: shmt.OpMeanFilter, rows: 32, cols: 32, weight: 1, tol: tol(2.131e-08)},
			{op: shmt.OpMeanFilter, rows: 64, cols: 64, weight: 2, tol: tol(2.097e-08)},
		},
		freshPerCycle:   2, // 2 of 20 slots: 10 % of requests
		freshLo:         33,
		freshHi:         63,
		warmCycles:      15,
		quietShareFloor: 0.10,
		ladderCalls:     20,
	},
	{
		name:    "serve_wire",
		why:     "JSON decode/encode and copies dominate, kernels are a few percent: decode-heavy, symmetric and encode-light ops",
		shape:   shapeServe,
		clients: 2,
		reqs: []reqDef{
			{op: shmt.OpAdd, rows: 256, cols: 256, weight: 1, tol: tol(0.00411)},
			{op: shmt.OpRelu, rows: 384, cols: 384, weight: 1, tol: tol(0.00709)},
			{op: shmt.OpReduceSum, rows: 512, cols: 512, weight: 1, tol: tol(1.49e-05)},
		},
		warmCycles:      6,
		quietShareFloor: 0.15,
		ladderCalls:     10,
	},
	{
		name:    "cluster_mixed",
		why:     "the only workload where router decode, pick, proxy, relay and scatter partition, re-encode, gather run",
		shape:   shapeCluster,
		clients: 2,
		reqs: []reqDef{
			{op: shmt.OpAdd, rows: 128, cols: 128, weight: 3, tol: tol(0.004105)},
			{op: shmt.OpAdd, rows: 160, cols: 160, weight: 3, tol: tol(0.007138)},
			{op: shmt.OpAdd, rows: 192, cols: 192, weight: 3, tol: tol(0.005382)},
			{op: shmt.OpRelu, rows: 128, cols: 128, weight: 3, tol: tol(0.007219)},
			{op: shmt.OpRelu, rows: 160, cols: 160, weight: 3, tol: tol(0.01023)},
			{op: shmt.OpRelu, rows: 192, cols: 192, weight: 3, tol: tol(0.004397)},
			{op: shmt.OpSobel, rows: 128, cols: 128, weight: 3, tol: tol(0.0242)},
			{op: shmt.OpSobel, rows: 160, cols: 160, weight: 3, tol: tol(0.1)},
			{op: shmt.OpSobel, rows: 192, cols: 192, weight: 3, tol: tol(0.06376)},
			{op: shmt.OpReduceSum, rows: 128, cols: 128, weight: 3, tol: tol(2.822e-06)},
			{op: shmt.OpReduceSum, rows: 160, cols: 160, weight: 3, tol: tol(2.456e-05)},
			{op: shmt.OpReduceSum, rows: 192, cols: 192, weight: 3, tol: tol(4.337e-05)},
			// 4 of 40 slots: 10 % of requests reach the scatter threshold. One
			// request type, so that the p95 of the mix falls inside a
			// homogeneous class and not on the boundary between two.
			{op: shmt.OpRelu, rows: 256, cols: 256, weight: 4, tol: tol(0.008637), scatter: true},
		},
		warmCycles:      1,
		quietShareFloor: 0.14,
		ladderCalls:     10,
	},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// request is a reqDef with its generated inputs and everything prepare
// derives from them.
type request struct {
	reqDef
	name   string // "add/64x64"
	inputs []*shmt.Matrix
	attrs  map[string]float64
	body   []byte // encoded /v1/execute body (served shapes)

	ref         *shmt.Matrix // exact float64 result of the whole input
	gpuMakespan float64      // virtual makespan under the GPU baseline policy
}

func (r *request) batch() []shmt.BatchRequest {
	return []shmt.BatchRequest{{Op: r.op, Inputs: r.inputs, Attrs: r.attrs}}
}

func reqName(op shmt.Op, rows, cols int) string {
	return fmt.Sprintf("%s/%dx%d", op, rows, cols)
}

// layoutSeed fixes what virtual time and quality depend on — which tiles of a
// tensor are wide-range (critical), where an image has its edges — as part of
// the workload definition. -seed then moves every value by a seeded jitter of
// one part in a million of the value range on top of that layout, so no two
// seeds send the same bytes, and it shuffles the order of the mix.
//
// The jitter is that small because sim_speedup and quality_mape_pct are
// chaotic in the input values. QAWS ranks partitions by sampled criticality
// and near-ties flip the device assignment; MAPE is dominated by the few
// elements whose reference is near zero. With the layout itself drawn from
// -seed, quality_mape_pct moved 3x from seed to seed (a 256x256 input has four
// lattice corners, each critical with probability 7 %); with a jitter of 5 %
// of the range by a fifth, with 0.2 % still by 30 % on the small inputs. No
// bound the contract allows could hold that. The wall-clock and allocation
// metrics do not depend on the values at all.
const layoutSeed = 20231

// jitterRel is the jitter's amplitude as a share of the value range.
const jitterRel = 1e-6

// jitter adds a seeded uniform perturbation of +-amp to every element.
func jitter(m *shmt.Matrix, amp float64, seed int64) *shmt.Matrix {
	n := workload.Uniform(m.Rows, m.Cols, -amp, amp, seed)
	for i, v := range n.Data {
		m.Data[i] += v
	}
	return m
}

// genInputs draws one op's input tensors from internal/workload, with the
// value distributions the paper's applications use (internal/bench does the
// same for the figures). slot tells the requests of a workload apart.
func genInputs(op shmt.Op, rows, cols int, slot, seed int64) ([]*shmt.Matrix, map[string]float64) {
	layout := layoutSeed + 16*slot
	clampMin := func(m *shmt.Matrix, lo float64) *shmt.Matrix {
		for i, v := range m.Data {
			if v < lo {
				m.Data[i] = lo
			}
		}
		return m
	}
	// Small inputs get small tiles, so that every tensor has a lattice of
	// critical and calm regions rather than a single tile.
	tile := rows / 8
	if tile < 8 {
		tile = 8
	}
	mixed := func(p workload.Profile, k int64) *shmt.Matrix {
		p.TileSize = tile
		m := workload.Mixed(rows, cols, p, layout+k)
		if p.Hi == p.Lo {
			p.Lo, p.Hi = 0, 1
		}
		return jitter(m, jitterRel*(p.Hi-p.Lo), seed+k)
	}
	image := func() *shmt.Matrix {
		return clampMin(jitter(workload.Image(rows, cols, layout), jitterRel*255, seed), 0)
	}
	switch op {
	case shmt.OpParabolicPDE:
		spot := clampMin(mixed(workload.Profile{Lo: 80, Hi: 120, CriticalScale: 6}, 0), 1)
		strike := jitter(workload.Uniform(rows, cols, 100, 150, layout+1), jitterRel*50, seed+1)
		return []*shmt.Matrix{spot, strike}, map[string]float64{"r": 0.02, "sigma": 0.30, "t": 1}
	case shmt.OpSobel, shmt.OpMeanFilter:
		return []*shmt.Matrix{image()}, nil
	case shmt.OpSRAD:
		return []*shmt.Matrix{clampMin(image(), 1)}, map[string]float64{"lambda": 0.5, "q0sqr": 0.05}
	case shmt.OpRelu:
		return []*shmt.Matrix{mixed(workload.Profile{Lo: -1, Hi: 1}, 0)}, nil
	case shmt.OpAdd, shmt.OpGEMM: // GEMM requests are square
		return []*shmt.Matrix{mixed(workload.Profile{}, 0), mixed(workload.Profile{}, 1)}, nil
	default: // FFT, DCT8x8, reductions
		return []*shmt.Matrix{mixed(workload.Profile{}, 0)}, nil
	}
}

// The client's copy of the /v1/execute wire schema.
type wireMatrix struct {
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Data []float64 `json:"data"`
}

type wireRequest struct {
	Op     string             `json:"op"`
	Inputs []wireMatrix       `json:"inputs"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

type wireStages struct {
	QueueWait   float64 `json:"queue_wait_seconds"`
	BatchLinger float64 `json:"batch_linger_seconds"`
	Plan        float64 `json:"plan_seconds"`
	Transfer    float64 `json:"quantize_transfer_seconds"`
	Execute     float64 `json:"execute_seconds"`
	Aggregate   float64 `json:"aggregate_seconds"`
}

func (s wireStages) sum() float64 {
	return s.QueueWait + s.BatchLinger + s.Plan + s.Transfer + s.Execute + s.Aggregate
}

type wireTrace struct {
	Stages wireStages `json:"stages"`
}

type wireResponse struct {
	Output          wireMatrix `json:"output"`
	MakespanSeconds float64    `json:"makespan_seconds"`
}

func encodeBody(op shmt.Op, inputs []*shmt.Matrix, attrs map[string]float64) ([]byte, error) {
	wr := wireRequest{Op: op.String(), Attrs: attrs}
	for _, m := range inputs {
		wr.Inputs = append(wr.Inputs, wireMatrix{Rows: m.Rows, Cols: m.Cols, Data: m.Data})
	}
	return json.Marshal(wr)
}

// generate builds the workload's distinct requests from seed. Request i
// perturbs its tensors with seed*1000+2i, so requests differ from one another
// and the same seed gives the same bytes.
func generate(def *workloadDef, seed int64) ([]*request, error) {
	reqs := make([]*request, len(def.reqs))
	for i, rd := range def.reqs {
		r := &request{reqDef: rd, name: reqName(rd.op, rd.rows, rd.cols)}
		r.inputs, r.attrs = genInputs(rd.op, rd.rows, rd.cols, int64(i), seed*1000+int64(2*i))
		if def.shape != shapeLib {
			body, err := encodeBody(r.op, r.inputs, r.attrs)
			if err != nil {
				return nil, fmt.Errorf("encode %s: %w", r.name, err)
			}
			r.body = body
		}
		reqs[i] = r
	}
	return reqs, nil
}

// cycle is one client's request order: every distinct request weight times
// and freshPerCycle fresh-shape slots (index -1), shuffled from the seed.
// Clients walk whole cycles, so the mix of a loop is exact to within one.
func cycle(reqs []*request, freshPerCycle int, seed int64, client int) []int {
	var c []int
	for i, r := range reqs {
		for k := 0; k < r.weight; k++ {
			c = append(c, i)
		}
	}
	for k := 0; k < freshPerCycle; k++ {
		c = append(c, -1)
	}
	rng := rand.New(rand.NewSource(seed*7919 + int64(client)))
	rng.Shuffle(len(c), func(a, b int) { c[a], c[b] = c[b], c[a] })
	return c
}

// freshOps are the ops a fresh-shape request can carry (serve_small's own).
var freshOps = []shmt.Op{shmt.OpAdd, shmt.OpRelu, shmt.OpReduceSum, shmt.OpSobel, shmt.OpMeanFilter}

// freshShape is one (op, rows, cols) the deployments of a run have not seen.
type freshShape struct {
	op         shmt.Op
	rows, cols int
}

// freshPool hands out never-repeated shapes and assembles their bodies from
// number text encoded once in prepare: a fresh body is a header plus a prefix
// of that text, so the generator pays a copy, not an encode, per request.
type freshPool struct {
	shapes []freshShape
	next   atomic.Int64 // cursor into shapes, shared by the clients
	vals   [2][]float64 // the numbers behind text, per input
	text   [2][]byte    // "v0,v1,v2,..." per input
	end    [2][]int     // end[k][n] = len of the text of the first n numbers
}

func newFreshPool(def *workloadDef, seed int64) *freshPool {
	if def.freshPerCycle == 0 {
		return nil
	}
	p := &freshPool{}
	for _, op := range freshOps {
		for r := def.freshLo; r <= def.freshHi; r++ {
			for c := def.freshLo; c <= def.freshHi; c++ {
				if s := (freshShape{op, r, c}); !slices.Contains(verifyFresh, s) {
					p.shapes = append(p.shapes, s)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(seed*104729 + 17))
	rng.Shuffle(len(p.shapes), func(a, b int) { p.shapes[a], p.shapes[b] = p.shapes[b], p.shapes[a] })
	n := def.freshHi * def.freshHi
	for k := range p.vals {
		// An image-like value range suits all five ops.
		p.vals[k] = jitter(workload.Image(def.freshHi, def.freshHi, layoutSeed+900+int64(k)), jitterRel*255, seed*1000+900+int64(k)).Data
		p.end[k] = make([]int, n+1)
		for i, v := range p.vals[k] {
			if i > 0 {
				p.text[k] = append(p.text[k], ',')
			}
			p.text[k] = strconv.AppendFloat(p.text[k], v, 'g', -1, 64)
			p.end[k][i+1] = len(p.text[k])
		}
	}
	return p
}

// verifyFresh are the shapes kept out of the pool for the verification pass,
// so that they are fresh there too and the same for every seed.
var verifyFresh = []freshShape{{shmt.OpSobel, 41, 57}, {shmt.OpAdd, 53, 39}}

// take returns the next unused shape. The pool holds several times what a run
// consumes; if it ever ran out, later "fresh" requests would hit the plan
// cache, so that is reported as an error rather than hidden.
func (p *freshPool) take() (freshShape, error) {
	i := int(p.next.Add(1)) - 1
	if i >= len(p.shapes) {
		return freshShape{}, errors.New("fresh-shape pool exhausted")
	}
	return p.shapes[i], nil
}

// appendBody appends the /v1/execute body of shape s to dst.
func (p *freshPool) appendBody(dst []byte, s freshShape) []byte {
	dst = append(dst, `{"op":"`...)
	dst = append(dst, s.op.String()...)
	dst = append(dst, `","inputs":[`...)
	for k := 0; k < s.op.NumInputs(); k++ {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"rows":`...)
		dst = strconv.AppendInt(dst, int64(s.rows), 10)
		dst = append(dst, `,"cols":`...)
		dst = strconv.AppendInt(dst, int64(s.cols), 10)
		dst = append(dst, `,"data":[`...)
		dst = append(dst, p.text[k][:p.end[k][s.rows*s.cols]]...)
		dst = append(dst, `]}`...)
	}
	return append(dst, `]}`...)
}

// request materialises shape s as a full request (verification pass only).
func (p *freshPool) request(s freshShape) (*request, error) {
	r := &request{
		reqDef: reqDef{op: s.op, rows: s.rows, cols: s.cols, tol: tol(0.05)},
		name:   reqName(s.op, s.rows, s.cols) + "/fresh",
	}
	for k := 0; k < s.op.NumInputs(); k++ {
		m, err := shmt.FromSlice(s.rows, s.cols, p.vals[k][:s.rows*s.cols])
		if err != nil {
			return nil, err
		}
		r.inputs = append(r.inputs, m)
	}
	r.body = p.appendBody(nil, s)
	return r, nil
}
