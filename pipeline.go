package shmt

import (
	"errors"
	"fmt"

	"shmt/internal/device"
	"shmt/internal/vop"
)

// Stage is one function of a multi-function program (the A…E of the paper's
// Fig. 1). Each stage consumes the previous stage's output as its first
// input.
type Stage struct {
	// Name labels the stage in reports.
	Name string
	// Op is the stage's VOP.
	Op Op
	// Attrs are the stage's kernel parameters.
	Attrs map[string]float64
	// Extra supplies any inputs beyond the previous stage's output (e.g.
	// Hotspot's power grid as the second operand).
	Extra []*Matrix
}

// PipelineMode selects the execution model of Fig. 1.
type PipelineMode int

const (
	// PipelineConventional is Fig. 1(a): each function delegated wholesale
	// to its most efficient device; functions execute back-to-back, all
	// other devices idle.
	PipelineConventional PipelineMode = iota
	// PipelineSoftware is Fig. 1(b): the same per-function device choice,
	// but functions stream partial results so stages on different devices
	// overlap chunk-by-chunk; stages mapped to the same device serialize.
	PipelineSoftware
	// PipelineSHMT is Fig. 1(c): every function co-executed by all devices
	// under the session's SHMT policy; functions remain sequential, but each
	// finishes sooner.
	PipelineSHMT
)

func (m PipelineMode) String() string {
	switch m {
	case PipelineConventional:
		return "conventional"
	case PipelineSoftware:
		return "software-pipelined"
	case PipelineSHMT:
		return "SHMT"
	default:
		return fmt.Sprintf("PipelineMode(%d)", int(m))
	}
}

// StageResult is one stage's outcome within a pipeline run.
type StageResult struct {
	Name string
	// Device names the executor under the conventional/pipelined modes
	// ("shmt" under PipelineSHMT).
	Device string
	// Latency is the stage's stand-alone virtual latency in seconds.
	Latency float64
	// Report is the underlying run report.
	Report *Report
}

// PipelineResult is the outcome of a multi-function program execution.
type PipelineResult struct {
	Mode PipelineMode
	// Output is the final stage's result (computed for real — data flows
	// through the stages in every mode).
	Output *Matrix
	// Makespan is the end-to-end virtual latency under the mode's overlap
	// structure.
	Makespan float64
	// EnergyJoules integrates the platform power over the makespan with the
	// per-stage device activity.
	EnergyJoules float64
	// Stages holds the per-stage breakdown.
	Stages []StageResult
}

// ExecutePipeline runs a multi-function program (Fig. 1) over the input
// under the given execution model and returns the final output with the
// modelled end-to-end latency.
//
// All three modes compute identical real data flow; they differ in which
// devices execute each stage and how stage timelines compose:
//
//   - conventional: Σ stage latencies on each stage's best single device;
//   - software-pipelined: stages chunk into the session's TargetPartitions
//     pieces and stream, so stages bound to different devices overlap — the
//     makespan is the per-device serialized load plus one chunk's ramp
//     through the remaining stages;
//   - SHMT: Σ stage latencies with every stage co-executed under the
//     session's policy.
func (s *Session) ExecutePipeline(input *Matrix, stages []Stage, mode PipelineMode) (*PipelineResult, error) {
	if input == nil {
		return nil, errors.New("shmt: nil input matrix")
	}
	if len(stages) == 0 {
		return nil, errors.New("shmt: pipeline needs at least one stage")
	}
	res := &PipelineResult{Mode: mode}
	cur := input

	for _, st := range stages {
		inputs := append([]*Matrix{cur}, st.Extra...)
		var rep *Report
		var devName string
		var err error
		switch mode {
		case PipelineSHMT:
			rep, err = s.Execute(st.Op, inputs, st.Attrs)
			devName = "shmt"
		case PipelineConventional, PipelineSoftware:
			devName = bestConventionalDevice(st.Op)
			rep, err = s.executeOn(devName, st.Op, inputs, st.Attrs)
		default:
			return nil, fmt.Errorf("shmt: unknown pipeline mode %d", int(mode))
		}
		if err != nil {
			return nil, fmt.Errorf("shmt: pipeline stage %q: %w", st.Name, err)
		}
		res.Stages = append(res.Stages, StageResult{
			Name: st.Name, Device: devName, Latency: rep.Makespan, Report: rep,
		})
		res.EnergyJoules += rep.Energy.Total()
		cur = rep.Output
	}
	res.Output = cur
	res.Makespan = composeMakespan(mode, res.Stages, s.cfg.TargetPartitions)
	return res, nil
}

// executeOn runs one VOP wholly on the named device, reusing the session's
// virtual scale and partitioning. The stage's session drops the chaos plan:
// copying it would restart the parent's fault schedule per stage
// (FailFirstOps outages re-firing on each one).
func (s *Session) executeOn(devName string, op Op, inputs []*Matrix, attrs map[string]float64) (*Report, error) {
	cfg := s.cfg
	cfg.Policy = PolicyGPUBaseline
	if devName == "tpu" {
		cfg.Policy = PolicyTPUOnly
	}
	cfg.Chaos = nil
	sub, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	defer sub.Close()
	return sub.Execute(op, inputs, attrs)
}

// bestConventionalDevice picks the device a conventional framework would
// delegate the whole function to: the one the calibrated cost model says is
// fastest end-to-end.
func bestConventionalDevice(op Op) string {
	if device.Cost(vop.Opcode(op)).TPURatio > 1 {
		return "tpu"
	}
	return "gpu"
}

// composeMakespan folds per-stage latencies into the mode's end-to-end
// latency.
func composeMakespan(mode PipelineMode, stages []StageResult, chunks int) float64 {
	switch mode {
	case PipelineSoftware:
		if chunks <= 0 {
			chunks = 64
		}
		// Streaming pipeline: each device serializes the stages bound to it
		// (that sum bounds the steady-state rate); the first chunk must
		// still ramp through every stage once.
		perDevice := map[string]float64{}
		var bottleneck, ramp float64
		for _, st := range stages {
			perDevice[st.Device] += st.Latency
			ramp += st.Latency / float64(chunks)
		}
		for _, t := range perDevice {
			if t > bottleneck {
				bottleneck = t
			}
		}
		return bottleneck + ramp
	default:
		var total float64
		for _, st := range stages {
			total += st.Latency
		}
		return total
	}
}
