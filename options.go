package shmt

import (
	"fmt"
	"math"

	"shmt/internal/sched"
)

// PolicyName selects the scheduling policy, matching the legends of the
// paper's Figs. 6–8.
type PolicyName string

const (
	// PolicyGPUBaseline delegates everything to the GPU with no
	// transfer/compute overlap: the conventional baseline every speedup in
	// the paper normalizes to.
	PolicyGPUBaseline PolicyName = "gpu-baseline"
	// PolicySWPipelining is the GPU baseline with software pipelining
	// (double-buffered staging) — the "SW pipelining" reference of Fig. 6.
	PolicySWPipelining PolicyName = "sw-pipelining"
	// PolicyTPUOnly delegates everything to the Edge TPU (the "edge TPU"
	// bars of Figs. 2 and 7).
	PolicyTPUOnly PolicyName = "tpu-only"
	// PolicyCPUOnly executes exactly on the host — the quality reference.
	PolicyCPUOnly PolicyName = "cpu-only"
	// PolicyEven statically splits HLOPs evenly across accelerators.
	PolicyEven PolicyName = "even-distribution"
	// PolicyWorkStealing is §3.4's basic scheduler: no quality control,
	// best speedup.
	PolicyWorkStealing PolicyName = "work-stealing"
	// PolicyQAWSTS … PolicyQAWSLR are the six QAWS variants (§3.5):
	// assignment ∈ {T: top-K, L: device limits} × sampling ∈ {S: striding,
	// U: uniform random, R: reduction}.
	PolicyQAWSTS PolicyName = "QAWS-TS"
	PolicyQAWSTU PolicyName = "QAWS-TU"
	PolicyQAWSTR PolicyName = "QAWS-TR"
	PolicyQAWSLS PolicyName = "QAWS-LS"
	PolicyQAWSLU PolicyName = "QAWS-LU"
	PolicyQAWSLR PolicyName = "QAWS-LR"
	// PolicyIRA is the IRA-sampling baseline: canary computation per
	// partition, excellent quality, net slowdown.
	PolicyIRA PolicyName = "IRA-sampling"
	// PolicyOracle assigns criticality from a free full scan — the quality
	// upper bound of Figs. 7–8.
	PolicyOracle PolicyName = "oracle"
	// PolicyQAWSTSAdaptive is QAWS-TS co-executing only where it pays: once
	// per plan-cache key it prices the VOP run whole on its most accurate
	// eligible device against QAWS-TS's partitioned plan and runs the
	// cheaper. Not one of the paper's policies; the session default.
	PolicyQAWSTSAdaptive PolicyName = "QAWS-TS/adaptive"
)

// DefaultPolicy is the policy a zero Config runs.
const DefaultPolicy = PolicyQAWSTSAdaptive

// AllQAWSPolicies lists the paper's six QAWS variants (the sampled rows
// that are not adaptive) in the paper's order.
func AllQAWSPolicies() []PolicyName {
	var names []PolicyName
	for _, r := range sched.Table {
		if r.Policy.Source == sched.Sampled && !r.Policy.Adaptive {
			names = append(names, PolicyName(r.Key))
		}
	}
	return names
}

// Config configures a Session. The zero value runs the paper's three
// devices (CPU, GPU, Edge TPU) under DefaultPolicy at the paper's
// defaults. The policy, not the program, decides which devices run a VOP.
type Config struct {
	// UseDSP registers the 24-bit image DSP extension device (§2.1) beside
	// the three, for the four-device ablation.
	UseDSP bool
	// Policy is the scheduling policy (default DefaultPolicy).
	Policy PolicyName
	// TargetPartitions is the HLOP count per VOP (default 64).
	TargetPartitions int
	// SamplingRate is QAWS's sampling rate (default 2^-15, Fig. 9's knee).
	// NewSession refuses NaN and ±Inf; a rate above 1 samples everything.
	SamplingRate float64
	// Seed drives sampling and the synthetic components (default 1).
	Seed int64
	// VirtualScale ≥ 1 slows the simulated platform down by that factor
	// (device throughputs and link bandwidths divide by it, host sampling
	// costs multiply by it). Running an N-element input at VirtualScale =
	// Nfull/N reproduces the virtual timeline of the full-size run exactly
	// — same HLOP count, same per-HLOP costs, same overhead ratios — while
	// quality is measured on the smaller (size-invariant) data. Default 1;
	// NewSession refuses NaN and ±Inf.
	VirtualScale float64
	// Telemetry configures runtime observability (see internal/telemetry).
	Telemetry Telemetry
	// Chaos maps device names ("cpu", "gpu", "tpu", "dsp") to fault plans
	// (see internal/chaos): seeded, reproducible transient errors, latency
	// degradation, permanent death, and output corruption. A plan with a
	// zero Seed inherits Config.Seed. Unknown device names error.
	Chaos map[string]ChaosConfig
	// PlanCache configures the memoized execution-plan layer. The zero value
	// enables it with DefaultPlanCacheEntries — production traffic is
	// shape-repetitive, so repeated same-shape Execute calls replay the
	// captured partition geometry and device assignment instead of
	// re-planning. See PlanCacheConfig for the data-dependence caveat.
	PlanCache PlanCacheConfig
}

// DefaultPlanCacheEntries is the plan cache's LRU capacity: plans
// are a few hundred bytes each (geometry plus assignment, no data), so even
// a serving session streaming many distinct shapes stays small.
const DefaultPlanCacheEntries = 512

// PlanCacheConfig configures the memoized execution-plan layer: a plan —
// partition geometry, per-HLOP device assignment, criticality — is captured
// on first execution of a (opcode, input shapes, attrs, Spec, policy) key
// and replayed by later same-key executions, skipping partition geometry,
// sampling reads and the assignment pass. Plans are invalidated wholesale
// whenever the device-health epoch moves (a circuit breaker opens, or a
// quarantined device is re-admitted), so a replay can never route work to a
// device the engine has quarantined, and bounded by LRU eviction.
//
// Caveat: data-dependent policies (QAWS, IRA, oracle) sample input values
// for criticality, so a replayed plan reuses the criticality profile of the
// execution that captured it. Steady-state serving traffic overwhelmingly
// shares profiles across same-shaped requests; workloads where per-request
// criticality matters (or measurement runs reproducing the paper's figures,
// as internal/bench does) should set Disabled.
type PlanCacheConfig struct {
	// Disabled turns the plan cache off: every Execute plans from scratch.
	Disabled bool
}

// Telemetry configures the session's observability layer. The zero value
// leaves instrumentation disabled — the engine's instrumented paths then
// cost one atomic load each and allocate nothing.
type Telemetry struct {
	// Enabled turns on the instrumentation core: process-global counters,
	// per-run spans, and the Session.TelemetryReport / Session.WriteTrace
	// exporters. The counters are read through a daemon's own /metrics, or
	// written by shmtrun -report-out.
	Enabled bool
}

// withDefaults gives zero and negative settings their defaults. A NaN or
// infinite SamplingRate or VirtualScale is an error: NaN fails every default
// test and would run, and +Inf would make every virtual time infinite.
func (c Config) withDefaults() (Config, error) {
	if math.IsNaN(c.SamplingRate) || math.IsInf(c.SamplingRate, 0) {
		return c, fmt.Errorf("shmt: SamplingRate %v is not a finite number", c.SamplingRate)
	}
	if math.IsNaN(c.VirtualScale) || math.IsInf(c.VirtualScale, 0) {
		return c, fmt.Errorf("shmt: VirtualScale %v is not a finite number", c.VirtualScale)
	}
	if c.Policy == "" {
		c.Policy = DefaultPolicy
	}
	if c.TargetPartitions <= 0 {
		c.TargetPartitions = 64
	}
	if c.SamplingRate <= 0 {
		c.SamplingRate = 1.0 / (1 << 15)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.VirtualScale < 1 {
		c.VirtualScale = 1
	}
	return c, nil
}

// policy looks the named policy up in sched.Table, sets its sampling rate,
// and reports whether the engine should double-buffer transfers.
func (c Config) policy() (sched.Policy, bool, error) {
	row, ok := sched.Lookup(string(c.Policy))
	if !ok {
		return sched.Policy{}, false, fmt.Errorf("shmt: unknown policy %q", c.Policy)
	}
	return row.Tuned(c.SamplingRate), row.DoubleBuffer, nil
}

// AllPolicies lists every policy name this library implements, in the order
// Fig. 6 reports them.
func AllPolicies() []PolicyName {
	names := make([]PolicyName, len(sched.Table))
	for i, r := range sched.Table {
		names[i] = PolicyName(r.Key)
	}
	return names
}
