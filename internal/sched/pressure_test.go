package sched

import "testing"

// TestQAWSTopKDeadlinePressure: raising the parent VOP's DeadlinePressure
// must monotonically widen the top tier of every top-K row — the QAWS-T
// rows, IRA and the oracle — and at full pressure every partition lands
// critical on the most accurate device.
func TestQAWSTopKDeadlinePressure(t *testing.T) {
	ctx := testCtx(t)
	for _, r := range Table {
		if r.Policy.Assignment != TopK {
			continue
		}
		t.Run(r.Key, func(t *testing.T) {
			pol := r.Tuned(0)
			criticalAt := func(pr float64) int {
				hs := partitioned(t, 64)
				hs[0].Parent.DeadlinePressure = pr
				if _, err := pol.Assign(ctx, hs); err != nil {
					t.Fatal(err)
				}
				n := 0
				for _, h := range hs {
					if h.Critical {
						n++
					}
				}
				return n
			}

			base := criticalAt(0)
			mid := criticalAt(0.5)
			full := criticalAt(1)
			if base >= mid || mid >= full {
				t.Fatalf("critical counts not monotone in pressure: base %d, mid %d, full %d", base, mid, full)
			}

			hs := partitioned(t, 64)
			hs[0].Parent.DeadlinePressure = 1
			if _, err := pol.Assign(ctx, hs); err != nil {
				t.Fatal(err)
			}
			top := ctx.EligibleFor(hs[0].Op)[0]
			for i, h := range hs {
				if !h.Critical || h.AssignedQueue != top {
					t.Fatalf("partition %d at full pressure: critical=%v queue=%d, want critical on queue %d",
						i, h.Critical, h.AssignedQueue, top)
				}
			}
		})
	}
}

// TestQAWSLimitsDeadlinePressure: under DeviceLimits, full pressure shrinks
// every ceiling to zero so all partitions fall through to the most accurate
// queue; without pressure the default relative limit still splits the work.
func TestQAWSLimitsDeadlinePressure(t *testing.T) {
	ctx := testCtx(t)
	pol := row(t, "QAWS-LS").Tuned(0.01)
	pol.TPULimit = 4

	hs := partitioned(t, 64)
	if _, err := pol.Assign(ctx, hs); err != nil {
		t.Fatal(err)
	}
	ordered := ctx.EligibleFor(hs[0].Op)
	low := 0
	for _, h := range hs {
		if h.AssignedQueue == ordered[len(ordered)-1] {
			low++
		}
	}
	if low == 0 {
		t.Fatal("baseline: no partition landed on the least accurate device — limit policy inert")
	}

	hs = partitioned(t, 64)
	hs[0].Parent.DeadlinePressure = 1
	if _, err := pol.Assign(ctx, hs); err != nil {
		t.Fatal(err)
	}
	for i, h := range hs {
		if h.AssignedQueue != ordered[0] || !h.Critical {
			t.Fatalf("partition %d at full pressure on queue %d (critical=%v), want critical on most accurate queue %d",
				i, h.AssignedQueue, h.Critical, ordered[0])
		}
	}
}
