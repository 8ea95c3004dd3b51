package cluster

import (
	"fmt"
	"testing"
)

// PickBounded is the bounded-load pick (pickBounded) over the key's ring
// order, as Pool.Route makes it.
func (r *Ring) PickBounded(k Key, factor float64, healthy func(string) bool, load func(string) int64, total int64) (string, int) {
	return pickBounded(r.Lookup(k, len(r.member)), factor, healthy, load, total)
}

func testKeys(n int) []Key {
	ks := make([]Key, 0, n)
	ops := []string{"add", "GEMM", "FFT", "Sobel"}
	for i := 0; i < n; i++ {
		ks = append(ks, Key{
			Tenant: fmt.Sprintf("tenant-%d", i%7),
			Op:     ops[i%len(ops)],
			Rows:   64 << (i % 5),
			Cols:   64 + i%13,
		})
	}
	return ks
}

// TestRingDeterministic: assignment is a pure function of the member set —
// insertion order, duplicates and rebuilds do not change it.
func TestRingDeterministic(t *testing.T) {
	a := NewRing([]string{"n1:1", "n2:1", "n3:1"}, 64)
	b := NewRing([]string{"n3:1", "n1:1", "n2:1", "n1:1"}, 64)
	for _, k := range testKeys(2000) {
		ga, gb := a.Lookup(k, 1), b.Lookup(k, 1)
		if len(ga) != 1 || len(gb) != 1 || ga[0] != gb[0] {
			t.Fatalf("key %v: order-dependent assignment %v vs %v", k, ga, gb)
		}
	}
	// Rebuilding the identical set yields the identical ring.
	c := NewRing([]string{"n1:1", "n2:1", "n3:1"}, 64)
	for _, k := range testKeys(500) {
		if a.Lookup(k, 3)[2] != c.Lookup(k, 3)[2] {
			t.Fatalf("key %v: rebuild changed replica order", k)
		}
	}
}

// TestRingReplicaOrder: Lookup returns distinct members, primary first, and
// never more than the member count.
func TestRingReplicaOrder(t *testing.T) {
	r := NewRing([]string{"a:1", "b:1", "c:1", "d:1"}, 32)
	for _, k := range testKeys(200) {
		got := r.Lookup(k, 10)
		if len(got) != 4 {
			t.Fatalf("key %v: want all 4 members, got %v", k, got)
		}
		seen := map[string]bool{}
		for _, m := range got {
			if seen[m] {
				t.Fatalf("key %v: duplicate member in %v", k, got)
			}
			seen[m] = true
		}
		if got[0] != r.Lookup(k, 1)[0] {
			t.Fatalf("key %v: primary changed with n", k)
		}
	}
}

// TestRingBalance: 128 vnodes keep the per-backend share within a factor of
// two of uniform at a realistic key population.
func TestRingBalance(t *testing.T) {
	members := []string{"10.0.0.1:8080", "10.0.0.2:8080", "10.0.0.3:8080", "10.0.0.4:8080"}
	r := NewRing(members, DefaultVnodes)
	counts := map[string]int{}
	keys := testKeys(20000)
	for _, k := range keys {
		counts[r.Lookup(k, 1)[0]]++
	}
	want := len(keys) / len(members)
	for m, c := range counts {
		if c < want/2 || c > want*2 {
			t.Fatalf("backend %s holds %d of %d keys (uniform %d): spread too skewed", m, c, len(keys), want)
		}
	}
}

// TestRingMinimalDisruption: growing the fleet from N to N+1 moves only
// ~K/(N+1) of the keys, and every moved key moves TO the new member — the
// defining consistent-hashing property.
func TestRingMinimalDisruption(t *testing.T) {
	old := []string{"n1:1", "n2:1", "n3:1", "n4:1", "n5:1"}
	grown := append(append([]string{}, old...), "n6:1")
	before := NewRing(old, DefaultVnodes)
	after := NewRing(grown, DefaultVnodes)

	keys := testKeys(20000)
	moved := 0
	for _, k := range keys {
		was, is := before.Lookup(k, 1)[0], after.Lookup(k, 1)[0]
		if was == is {
			continue
		}
		moved++
		if is != "n6:1" {
			t.Fatalf("key %v moved %s -> %s, not to the new member", k, was, is)
		}
	}
	frac := float64(moved) / float64(len(keys))
	ideal := 1.0 / float64(len(grown))
	if frac < ideal/2 || frac > ideal*2 {
		t.Fatalf("moved %.1f%% of keys; want ~%.1f%% (K/N)", frac*100, ideal*100)
	}
}

// TestPickBoundedQuarantine: an unhealthy primary rehashes the key to its
// first healthy replica, reported via a positive position; a fully
// quarantined fleet returns no backend.
func TestPickBoundedQuarantine(t *testing.T) {
	r := NewRing([]string{"a:1", "b:1", "c:1"}, 32)
	k := Key{Tenant: "t", Op: "add", Rows: 128, Cols: 128}
	order := r.Lookup(k, 3)
	primary := order[0]

	noLoad := func(string) int64 { return 0 }
	got, pos := r.PickBounded(k, 1.25, func(string) bool { return true }, noLoad, 0)
	if got != primary || pos != 0 {
		t.Fatalf("all healthy: got (%s,%d), want (%s,0)", got, pos, primary)
	}

	got, pos = r.PickBounded(k, 1.25, func(m string) bool { return m != primary }, noLoad, 0)
	if got != order[1] || pos != 1 {
		t.Fatalf("quarantined primary: got (%s,%d), want (%s,1)", got, pos, order[1])
	}

	got, pos = r.PickBounded(k, 1.25, func(string) bool { return false }, noLoad, 0)
	if got != "" || pos != -1 {
		t.Fatalf("all quarantined: got (%s,%d), want (\"\",-1)", got, pos)
	}
}

// TestPickBoundedLoad: a primary over the bounded-load ceiling spills the
// key to a replica; when every backend is over, the first healthy one takes
// the overflow rather than refusing.
func TestPickBoundedLoad(t *testing.T) {
	r := NewRing([]string{"a:1", "b:1", "c:1"}, 32)
	k := Key{Tenant: "t", Op: "GEMM", Rows: 512, Cols: 512}
	order := r.Lookup(k, 3)
	healthy := func(string) bool { return true }

	// total=9 over 3 backends, factor 1.0: ceiling = floor(10/3)+1 = 4.
	// Primary at 7 is over; replica at 1 is under.
	loads := map[string]int64{order[0]: 7, order[1]: 1, order[2]: 1}
	got, pos := r.PickBounded(k, 1.0, healthy, func(m string) int64 { return loads[m] }, 9)
	if got != order[1] || pos != 1 {
		t.Fatalf("overloaded primary: got (%s,%d), want (%s,1)", got, pos, order[1])
	}

	// Everyone over the ceiling: overflow lands on the first healthy.
	got, pos = r.PickBounded(k, 1.0, healthy, func(string) int64 { return 100 }, 300)
	if got != order[0] || pos != 0 {
		t.Fatalf("all overloaded: got (%s,%d), want (%s,0)", got, pos, order[0])
	}
}

// TestRingEmpty: lookups on an empty ring are nil, picks report no backend.
func TestRingEmpty(t *testing.T) {
	r := NewRing(nil, 0)
	if got := r.Lookup(Key{Op: "add"}, 1); got != nil {
		t.Fatalf("empty ring Lookup = %v", got)
	}
	if got, pos := r.PickBounded(Key{Op: "add"}, 1.25, func(string) bool { return true }, func(string) int64 { return 0 }, 0); got != "" || pos != -1 {
		t.Fatalf("empty ring PickBounded = (%s,%d)", got, pos)
	}
}
