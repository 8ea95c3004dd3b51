package shmt

import (
	"fmt"

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
)

// AllQAWSPolicies lists the six QAWS variants (the sampled rows) in the
// paper's order.
func AllQAWSPolicies() []PolicyName {
	var names []PolicyName
	for _, r := range sched.Table {
		if r.Policy.Source == sched.Sampled {
			names = append(names, PolicyName(r.Key))
		}
	}
	return names
}

// Config configures a Session. The zero value enables all three devices
// with the QAWS-TS policy at the paper's defaults.
type Config struct {
	// Device selection; if none of UseCPU/UseGPU/UseTPU is set, all three
	// (the paper's prototype) are enabled. UseDSP is additive: it registers
	// the 24-bit image DSP extension device (§2.1) on top of whatever else
	// is selected.
	UseCPU, UseGPU, UseTPU bool
	UseDSP                 bool
	// Policy is the scheduling policy (default PolicyQAWSTS).
	Policy PolicyName
	// TargetPartitions is the HLOP count per VOP (default 64).
	TargetPartitions int
	// SamplingRate is QAWS's sampling rate (default 2^-15, Fig. 9's knee).
	SamplingRate float64
	// Seed drives sampling and the synthetic components (default 1).
	Seed int64
	// VirtualScale ≥ 1 slows the simulated platform down by that factor
	// (device throughputs and link bandwidths divide by it, host sampling
	// costs multiply by it). Running an N-element input at VirtualScale =
	// Nfull/N reproduces the virtual timeline of the full-size run exactly
	// — same HLOP count, same per-HLOP costs, same overhead ratios — while
	// quality is measured on the smaller (size-invariant) data. Default 1.
	VirtualScale float64
	// Workers caps the host worker pool (see internal/parallel) that runs the
	// arithmetic: the engine decides a whole round in virtual time,
	// one HLOP after another, and then computes the admitted HLOPs on the
	// pool, one task each, and kernels fan their own loops out over it too.
	// 0 keeps the current setting — GOMAXPROCS, or the SHMT_WORKERS
	// environment variable when set. 1 forces sequential execution. Results
	// and every virtual-time figure are identical at every setting. The pool itself
	// is process-wide, but the setting is scoped to the session: it acquires
	// a cap released by Close, and with several live sessions the strictest
	// cap wins, so concurrent sessions compose deterministically instead of
	// racing last-write-wins.
	Workers int
	// Telemetry configures runtime observability (see internal/telemetry).
	Telemetry Telemetry
	// Chaos maps device names ("cpu", "gpu", "tpu", "dsp") to fault plans
	// (see internal/chaos): seeded, reproducible transient errors, latency
	// degradation, permanent death, and output corruption. A plan with a
	// zero Seed inherits Config.Seed. Unknown device names error.
	Chaos map[string]ChaosConfig
	// Resilience tunes the engine's graceful degradation: circuit-breaker
	// threshold and cooldown, exponential backoff, and the per-HLOP retry
	// bound. The zero value uses the defaults (see core.Resilience).
	Resilience Resilience
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
	// exporters. Setting MetricsAddr implies Enabled.
	Enabled bool
	// MetricsAddr, when non-empty, serves Prometheus text exposition on
	// http://ADDR/metrics for the session's lifetime (closed by
	// Session.Close). Empty falls back to the SHMT_METRICS_ADDR environment
	// variable; ":0" picks a free port (see Session.MetricsAddr).
	MetricsAddr string
}

func (c Config) withDefaults() Config {
	if !c.UseCPU && !c.UseGPU && !c.UseTPU {
		c.UseCPU, c.UseGPU, c.UseTPU = true, true, true
	}
	if c.Policy == "" {
		c.Policy = PolicyQAWSTS
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
	return c
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
