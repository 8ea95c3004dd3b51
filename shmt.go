package shmt

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"shmt/internal/chaos"
	"shmt/internal/core"
	"shmt/internal/device"
	"shmt/internal/device/cpu"
	"shmt/internal/device/dsp"
	"shmt/internal/device/gpu"
	"shmt/internal/device/tpu"
	"shmt/internal/energy"
	"shmt/internal/hlop"
	"shmt/internal/interconnect"
	"shmt/internal/telemetry"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// Matrix is the dense row-major float64 container VOPs consume and produce.
type Matrix = tensor.Matrix

// NewMatrix allocates a rows×cols matrix of zeros.
func NewMatrix(rows, cols int) *Matrix { return tensor.NewMatrix(rows, cols) }

// FromSlice wraps data as a rows×cols matrix without copying.
func FromSlice(rows, cols int, data []float64) (*Matrix, error) {
	return tensor.FromSlice(rows, cols, data)
}

// Op identifies a virtual operation (VOP). The set mirrors Table 1 of the
// paper; see the Op* constants.
type Op = vop.Opcode

// The VOP set (Table 1). Vector-model opcodes partition element-wise; tile
// opcodes partition into matrix tiles.
const (
	OpAdd           = vop.OpAdd
	OpSub           = vop.OpSub
	OpMultiply      = vop.OpMultiply
	OpLog           = vop.OpLog
	OpSqrt          = vop.OpSqrt
	OpRsqrt         = vop.OpRsqrt
	OpTanh          = vop.OpTanh
	OpRelu          = vop.OpRelu
	OpMax           = vop.OpMax
	OpMin           = vop.OpMin
	OpReduceSum     = vop.OpReduceSum
	OpReduceAverage = vop.OpReduceAverage
	OpReduceMax     = vop.OpReduceMax
	OpReduceMin     = vop.OpReduceMin
	OpReduceHist256 = vop.OpReduceHist256
	OpParabolicPDE  = vop.OpParabolicPDE
	OpConv          = vop.OpConv
	OpGEMM          = vop.OpGEMM
	OpDCT8x8        = vop.OpDCT8x8
	OpFDWT97        = vop.OpFDWT97
	OpFFT           = vop.OpFFT
	OpLaplacian     = vop.OpLaplacian
	OpMeanFilter    = vop.OpMeanFilter
	OpSobel         = vop.OpSobel
	OpSRAD          = vop.OpSRAD
	OpStencil       = vop.OpStencil
)

// Report summarises one VOP execution: virtual latency, per-device busy
// time, integrated energy, data-movement and footprint accounting.
type Report = core.Report

// EnergyBreakdown splits a run's energy into active and idle components.
type EnergyBreakdown = energy.Breakdown

// CommTracker carries the data-movement accounting of a run.
type CommTracker = interconnect.Tracker

// TelemetryReport is the structured observability report of a session: the
// counter deltas since the session was built, process totals, and a per-lane
// span digest. See Session.TelemetryReport.
type TelemetryReport = telemetry.Report

// ChaosConfig is one device's fault-injection plan (see internal/chaos):
// seeded reproducible transient errors, latency degradation, permanent
// death, and output corruption. Set per device via Config.Chaos.
type ChaosConfig = chaos.Config

// Degraded quantifies a run's fault handling: quarantined devices, rerouted
// HLOPs, and the quality impact when work fell back to a less accurate
// device. Reports carry it as Report.Degraded (nil when nothing failed).
type Degraded = core.Degraded

// ParseChaosSpec parses the CLI fault-plan syntax
// ("device:key=value[,key=value];...") into a Config.Chaos map. See
// chaos.ParseSpec for the key set.
func ParseChaosSpec(spec string, seed int64) (map[string]ChaosConfig, error) {
	return chaos.ParseSpec(spec, seed)
}

// Session is SHMT's virtual hardware device: it owns the simulated device
// set and the runtime engine, and executes the VOPs submitted to it.
//
// A Session is safe for concurrent use: Execute, ExecuteBatch and
// ExecutePipeline may be called from any number of goroutines. Calls
// serialize on the session's engine (the engine's queue/clock state is
// single-run), so concurrent throughput comes from co-scheduling work in one
// round — batch independent requests through ExecuteBatch (or the
// internal/serve front-end, which coalesces concurrent callers into
// ExecuteBatch rounds) rather than racing many Execute calls.
type Session struct {
	cfg Config
	reg *device.Registry
	eng *core.Engine
	tel *telemetry.Recorder

	// mu serializes engine runs and guards closed. Close takes it too, so
	// closing waits for (or refuses, if it wins the lock) in-flight work
	// rather than racing a running batch.
	mu     sync.Mutex
	closed bool
}

// ErrSessionClosed is returned by Execute/ExecuteBatch/ExecutePipeline after
// Session.Close.
var ErrSessionClosed = errors.New("shmt: session is closed")

// NewSession builds a session from cfg (zero value = the paper's three
// devices, DefaultPolicy, paper-default partitioning).
func NewSession(cfg Config) (*Session, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	devs := []device.Device{
		cpu.New(cfg.VirtualScale),
		gpu.New(gpu.Config{Slowdown: cfg.VirtualScale}),
		tpu.New(tpu.Config{Slowdown: cfg.VirtualScale}),
	}
	if cfg.UseDSP {
		devs = append(devs, dsp.New(dsp.Config{Slowdown: cfg.VirtualScale}))
	}
	if len(cfg.Chaos) > 0 {
		byName := map[string]int{}
		for i, d := range devs {
			byName[d.Name()] = i
		}
		for name, cc := range cfg.Chaos {
			i, ok := byName[name]
			if !ok {
				return nil, fmt.Errorf("shmt: chaos plan for unknown device %q (have %v)", name, devNames(devs))
			}
			if cc.Seed == 0 {
				cc.Seed = cfg.Seed
			}
			devs[i] = chaos.Wrap(devs[i], cc)
		}
	}
	reg, err := device.NewRegistry(devs...)
	if err != nil {
		return nil, fmt.Errorf("shmt: %w", err)
	}

	pol, doubleBuffer, err := cfg.policy()
	if err != nil {
		return nil, err
	}
	eng := &core.Engine{
		Reg:          reg,
		Policy:       pol,
		Spec:         hlop.Spec{TargetPartitions: cfg.TargetPartitions},
		DoubleBuffer: doubleBuffer,
		Prefetch:     doubleBuffer, // the resident operand cache rides on the double-buffer pipeline
		Seed:         cfg.Seed,
		HostScale:    cfg.VirtualScale,
	}
	if !cfg.PlanCache.Disabled {
		eng.PlanCacheEntries = DefaultPlanCacheEntries
	}
	s := &Session{cfg: cfg, reg: reg, eng: eng}
	if cfg.Telemetry.Enabled {
		telemetry.Enable()
		s.tel = telemetry.NewRecorder()
		eng.Telemetry = s.tel
	}
	return s, nil
}

// Close marks the session closed so later Execute/ExecuteBatch calls return
// ErrSessionClosed. Close waits for an in-flight run to finish (they share
// the session mutex), so tearing a server down cannot race a running batch.
// Idempotent; the error is always nil.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// TelemetryReport returns the session's observability report: counter deltas
// since the session was built, absolute process totals, and a per-lane span
// digest. Returns nil unless telemetry was enabled in the Config.
func (s *Session) TelemetryReport() *TelemetryReport {
	if s.tel == nil {
		return nil
	}
	return s.tel.Report()
}

// WriteTrace renders every span the session recorded — virtual device lanes,
// wall-clock host lanes, and steal flow arrows — as Chrome trace-event JSON
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Returns an
// error unless telemetry was enabled in the Config.
func (s *Session) WriteTrace(w io.Writer) error {
	if s.tel == nil {
		return errors.New("shmt: telemetry not enabled (set Config.Telemetry.Enabled)")
	}
	return s.tel.WritePerfetto(w)
}

// TelemetryRecorder returns the session's span recorder so embedding layers
// can add wall-clock spans of their own — the serving front-end records one
// span per micro-batch round, which then shows up in WriteTrace and
// TelemetryReport next to the engine's lanes. Nil unless telemetry was
// enabled in the Config.
func (s *Session) TelemetryRecorder() *telemetry.Recorder { return s.tel }

// Devices lists the session's device names in queue-index order.
func (s *Session) Devices() []string {
	names := make([]string, s.reg.Len())
	for i, d := range s.reg.Devices() {
		names[i] = d.Name()
	}
	return names
}

func devNames(devs []device.Device) []string {
	names := make([]string, len(devs))
	for i, d := range devs {
		names[i] = d.Name()
	}
	return names
}

// QuarantinedDevices lists devices whose circuit breaker is currently open —
// the engine routes new work around them until a re-admission probe
// succeeds.
func (s *Session) QuarantinedDevices() []string { return s.eng.QuarantinedDevices() }

// PlanCacheStats is a snapshot of the session's execution-plan cache
// counters (hits, misses, LRU evictions, epoch invalidations, population).
type PlanCacheStats = core.PlanCacheStats

// PlanCacheStats reports the session's plan-cache activity; all-zero when
// the cache is disabled (Config.PlanCache.Disabled).
func (s *Session) PlanCacheStats() PlanCacheStats { return s.eng.PlanCacheStats() }

// PolicyName returns the active scheduling policy's label.
func (s *Session) PolicyName() string { return s.eng.Policy.Name }

// OnBreakerEvent registers a callback for circuit-breaker transitions: fn is
// called with the device name and event ("open" when a device is quarantined,
// "readmitted" when a probe returns it to service). The callback runs on the
// engine's execution path, so it must be quick. Safe to call while requests
// are in flight (the registration is atomic), though transitions already
// firing may be missed; pass nil to remove.
func (s *Session) OnBreakerEvent(fn func(device, event string)) {
	s.eng.SetBreakerNotify(fn)
}

// Execute submits one VOP: opcode, input tensors, and optional scalar
// attributes (kernel parameters such as SRAD's "lambda"). The returned
// Report carries the output and the run's accounting.
func (s *Session) Execute(op Op, inputs []*Matrix, attrs map[string]float64) (*Report, error) {
	v, err := vop.New(op, inputs...)
	if err != nil {
		return nil, err
	}
	for k, x := range attrs {
		v.SetAttr(k, x)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	return s.eng.Run(v)
}

// Reference executes the VOP bit-exactly (PolicyCPUOnly: float64 on the CPU
// device, same partitioning) — the quality baseline MAPE/SSIM compare
// against. It runs on a fresh session without the parent's fault plan.
func (s *Session) Reference(op Op, inputs []*Matrix, attrs map[string]float64) (*Matrix, error) {
	ref, err := NewSession(Config{
		Policy:           PolicyCPUOnly,
		TargetPartitions: s.cfg.TargetPartitions,
		Seed:             s.cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	rep, err := ref.Execute(op, inputs, attrs)
	if err != nil {
		return nil, err
	}
	return rep.Output, nil
}

// ParseOp parses an opcode by the name Op.String prints ("add", "GEMM",
// "Sobel", ...), case-insensitively. The second return is false for unknown
// names.
func ParseOp(name string) (Op, bool) { return vop.Parse(name) }
