package breaker

import "testing"

// step is one call on a breaker and what it must answer: OnFailure reports
// whether the breaker opened (and, when fails or cooldown is set, the count
// and quarantine it returns), OnSuccess whether it re-admitted, BeginProbe
// whether a probe began, ProbeDue and Quarantined their answer.
type step struct {
	call     string // "fail", "ok", "probe", "due", "quarantined"
	at       float64
	want     bool
	fails    int
	cooldown float64
}

func TestBreaker(t *testing.T) {
	cases := []struct {
		name                  string
		threshold             int
		cooldown, cooldownCap float64
		steps                 []step
		state                 State
		fails, opens          int
	}{
		{name: "opens at the threshold", threshold: 3, cooldown: 5e-3, cooldownCap: 1,
			steps: []step{
				{call: "fail", fails: 1},
				{call: "fail", fails: 2},
				{call: "quarantined", want: false},
				{call: "fail", want: true, fails: 3, cooldown: 5e-3},
				{call: "quarantined", want: true},
			},
			state: Open, fails: 3, opens: 1},
		{name: "a success resets the failure count", threshold: 3, cooldown: 1, cooldownCap: 30,
			steps: []step{
				{call: "fail"}, {call: "fail"},
				{call: "ok", want: false}, // a closed breaker's success is no re-admission
				{call: "fail", fails: 1},
				{call: "fail", fails: 2},
			},
			state: Closed, fails: 2},
		{name: "probe cycle", threshold: 1, cooldown: 1, cooldownCap: 3,
			steps: []step{
				{call: "fail", at: 1000, want: true, cooldown: 1},
				{call: "due", at: 1000.5, want: false},
				{call: "due", at: 1001, want: true},
				{call: "probe", want: true},
				{call: "quarantined", want: false}, // half-open: the probe is running
				{call: "ok", want: true},
				{call: "quarantined", want: false},
			},
			state: Closed, opens: 1},
		{name: "a failed probe doubles the cooldown up to its cap", threshold: 1, cooldown: 1, cooldownCap: 3,
			steps: []step{
				{call: "fail", at: 0, want: true, cooldown: 1},
				{call: "probe", want: true},
				{call: "fail", at: 1, want: true, fails: 2, cooldown: 2},
				{call: "due", at: 2.5, want: false},
				{call: "due", at: 3, want: true},
				{call: "probe", want: true},
				{call: "fail", at: 3, want: true, cooldown: 3}, // 4 capped
				{call: "due", at: 5.5, want: false},
				{call: "due", at: 6, want: true},
				{call: "probe", want: true},
				{call: "fail", at: 6, want: true, cooldown: 3},
			},
			state: Open, fails: 4, opens: 4},
		{name: "BeginProbe only when open", threshold: 1, cooldown: 1, cooldownCap: 2,
			steps: []step{
				{call: "probe", want: false},
				{call: "fail", want: true, cooldown: 1},
				{call: "probe", want: true},
				{call: "probe", want: false}, // already half-open
				{call: "ok", want: true},
				{call: "probe", want: false},
			},
			state: Closed, opens: 1},
		{name: "ProbeDue at exactly the cooldown", threshold: 2, cooldown: 0.5, cooldownCap: 8,
			steps: []step{
				{call: "due", at: 100, want: false}, // closed
				{call: "fail", at: 1.5},
				{call: "fail", at: 2, want: true, cooldown: 0.5},
				{call: "due", at: 2.4999, want: false},
				{call: "due", at: 2.5, want: true},
				{call: "probe", want: true},
				{call: "due", at: 100, want: false}, // half-open
			},
			state: HalfOpen, fails: 2, opens: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := New(tc.threshold, tc.cooldown, tc.cooldownCap)
			for i, s := range tc.steps {
				var got bool
				switch s.call {
				case "fail":
					fails, opened, cooldown := b.OnFailure(s.at)
					got = opened
					if s.fails != 0 && fails != s.fails {
						t.Fatalf("step %d: OnFailure counted %d consecutive failures, want %d", i, fails, s.fails)
					}
					if opened && cooldown != s.cooldown {
						t.Fatalf("step %d: opened for %g s, want %g", i, cooldown, s.cooldown)
					}
				case "ok":
					got = b.OnSuccess()
				case "probe":
					got = b.BeginProbe()
				case "due":
					got = b.ProbeDue(s.at)
				case "quarantined":
					got = b.Quarantined()
				default:
					t.Fatalf("step %d: unknown call %q", i, s.call)
				}
				if got != s.want {
					t.Fatalf("step %d: %s at %g = %v, want %v", i, s.call, s.at, got, s.want)
				}
			}
			state, fails, opens, _ := b.Snapshot()
			if state != tc.state || fails != tc.fails || opens != tc.opens {
				t.Fatalf("ends %s with %d failures and %d opens, want %s, %d, %d",
					state, fails, opens, tc.state, tc.fails, tc.opens)
			}
		})
	}
}

func TestStateNames(t *testing.T) {
	for s, want := range map[State]string{Closed: "closed", Open: "open", HalfOpen: "half-open"} {
		if s.String() != want {
			t.Fatalf("State(%d) = %q, want %q", s, s, want)
		}
	}
}
