// Package breaker is the one circuit breaker both tiers quarantine a failing
// member with: the engine breaks a device on its virtual lane clock, the
// router's pool breaks a backend on the wall clock. The machine never reads
// a clock itself — the methods that need the time take now, in float64
// seconds, from the caller — so one implementation serves both timelines and
// a test can drive it with any clock it likes.
//
//	closed    --(threshold consecutive failures)--> open
//	open      --(cooldown elapses, the caller begins a probe)--> half-open
//	half-open --(probe succeeds)--> closed (re-admitted)
//	half-open --(probe fails)--> open, cooldown doubled up to its cap
//
// What the caller does around the transitions differs by tier. The engine
// jumps the device's clock past the cooldown when the breaker opens, so its
// next own-queue HLOP is the probe by construction; the pool asks ProbeDue
// before each health probe.
package breaker

import "sync"

// State is a breaker's position in the machine. Its values are those of the
// shmt_breaker_state and shmt_router_breaker_state gauges.
type State int32

// The three states.
const (
	Closed State = iota
	Open
	HalfOpen
)

// String is the state's /statusz label.
func (s State) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Breaker is one member's circuit breaker. All methods are safe for
// concurrent use: engine breakers outlive a run and are read from outside
// one, and pool breakers are shared by request handlers and the prober.
type Breaker struct {
	threshold        int
	initial, ceiling float64 // cooldown at the first open, and its cap, in seconds

	mu       sync.Mutex
	state    State
	fails    int // consecutive failures
	opens    int
	cooldown float64
	openedAt float64
}

// New returns a closed breaker that opens after threshold consecutive
// failures, for cooldown seconds at first and twice as long after each failed
// probe, up to cooldownCap. Callers resolve their own defaults.
func New(threshold int, cooldown, cooldownCap float64) *Breaker {
	return &Breaker{threshold: threshold, initial: cooldown, ceiling: cooldownCap}
}

// Quarantined reports whether the breaker is open: the member refuses
// regular work. A half-open breaker is not quarantined; its probe is running.
func (b *Breaker) Quarantined() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == Open
}

// BeginProbe turns an open breaker half-open and reports whether it did; the
// caller then runs the re-admission probe. It refuses any other state.
func (b *Breaker) BeginProbe() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != Open {
		return false
	}
	b.state = HalfOpen
	return true
}

// ProbeDue reports whether an open breaker's cooldown has elapsed at now.
func (b *Breaker) ProbeDue(now float64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == Open && now-b.openedAt >= b.cooldown
}

// OnFailure records a failure at now. fails is the consecutive-failure count
// including this one; opened reports whether the breaker opened on it — the
// threshold reached from closed, or a failed probe re-opening with its
// cooldown doubled — and cooldown is then the quarantine just begun.
func (b *Breaker) OnFailure(now float64) (fails int, opened bool, cooldown float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	switch {
	case b.state == HalfOpen:
		b.cooldown = min(2*b.cooldown, b.ceiling)
	case b.state == Closed && b.fails >= b.threshold:
		b.cooldown = b.initial
	default:
		return b.fails, false, 0
	}
	b.opens++
	b.state = Open
	b.openedAt = now
	return b.fails, true, b.cooldown
}

// OnSuccess closes the breaker and resets its failure count; readmitted
// reports whether the success was a half-open probe returning a quarantined
// member to service.
func (b *Breaker) OnSuccess() (readmitted bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	readmitted = b.state == HalfOpen
	b.state = Closed
	b.fails = 0
	return readmitted
}

// Snapshot returns the state, the consecutive-failure count, how many times
// the breaker has opened, and the current cooldown in seconds.
func (b *Breaker) Snapshot() (state State, fails, opens int, cooldown float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.fails, b.opens, b.cooldown
}
