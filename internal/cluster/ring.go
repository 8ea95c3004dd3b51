package cluster

import (
	"fmt"
	"slices"
	"sort"
)

// Key identifies a request for placement: requests from the same tenant for
// the same op and input shape hash to the same backend, so a backend's plan
// cache and exec-time cache stay hot for the keys it owns.
type Key struct {
	// Tenant partitions the key space per client (the X-SHMT-Tenant header;
	// empty for anonymous traffic).
	Tenant string
	// Op is the opcode name as it appears on the wire.
	Op string
	// Rows, Cols are the first input's shape.
	Rows, Cols int
}

func (k Key) String() string {
	return fmt.Sprintf("%s/%s/%dx%d", k.Tenant, k.Op, k.Rows, k.Cols)
}

// hash64 is FNV-1a over the key's canonical encoding. A seeded avalanche mix
// (splitmix64, the same finalizer internal/chaos uses) spreads the vnode
// index so virtual nodes of one backend land far apart on the ring.
func (k Key) hash64() uint64 {
	h := fnv1a(fnv1a(fnvOffset, k.Tenant), k.Op)
	h ^= mix64(uint64(k.Rows)*fnvPrime + uint64(k.Cols))
	return mix64(h)
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fnv1a folds s into h, with a 0x00 separator so ("ab","c") and ("a","bc")
// hash differently.
func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	h ^= 0
	h *= fnvPrime
	return h
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// DefaultVnodes is the virtual-node count per backend. 128 points per
// backend keeps the load spread within a few percent of uniform at small
// fleet sizes while membership changes still move only ~K/N keys.
const DefaultVnodes = 128

// Ring is an immutable consistent-hash ring over a backend set. Build one
// with NewRing and swap the whole ring on membership change — lookups are
// lock-free reads of sorted points, and determinism is trivially preserved:
// the ring is a pure function of the member set (insertion order and prior
// history do not matter).
type Ring struct {
	points []ringPoint // sorted by hash
	member []string    // sorted member names
}

type ringPoint struct {
	hash    uint64
	backend string
}

// NewRing builds the ring for the given members with vnodes virtual nodes
// each (DefaultVnodes when vnodes <= 0). Duplicate members collapse.
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		uniq = append(uniq, m)
	}
	sort.Strings(uniq)
	r := &Ring{member: uniq, points: make([]ringPoint, 0, len(uniq)*vnodes)}
	for _, m := range uniq {
		h := fnv1a(fnvOffset, m)
		for v := 0; v < vnodes; v++ {
			// Each vnode position is the mixed (member, index) pair; mix64
			// makes consecutive indices land uniformly around the ring.
			r.points = append(r.points, ringPoint{hash: mix64(h ^ uint64(v)*fnvPrime), backend: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on the name so equal hashes (astronomically rare) still
		// order deterministically.
		return r.points[i].backend < r.points[j].backend
	})
	return r
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.member) }

// Lookup returns up to n distinct backends for the key in ring order: the
// primary first, then the replicas the key rehashes to when earlier choices
// are quarantined or over the load bound. n > len(members) returns them all.
func (r *Ring) Lookup(k Key, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	n = min(n, len(r.member))
	h := k.hash64()
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		// A fleet is a handful of backends: a scan of out beats a set.
		if p := r.points[(start+i)%len(r.points)]; !slices.Contains(out, p.backend) {
			out = append(out, p.backend)
		}
	}
	return out
}

// pickBounded walks the key's ring order and returns the first backend that
// is admissible (healthy and under the bounded-load ceiling), along with its
// position in that order (0 = primary; > 0 means the key rehashed). The
// ceiling implements consistent hashing with bounded loads: a backend may
// hold at most ceil(factor * (total+1) / members) of the total in-flight
// requests, so one hot key range spills to its replicas instead of melting
// its primary. healthy and load are callbacks so the immutable ring needs no
// view of breaker or in-flight state.
//
// A fully quarantined fleet returns "" — the caller answers 503. When every
// healthy backend is over the ceiling (a burst beyond the fleet's bound),
// the first healthy backend in ring order takes the overflow: shedding is
// the admission queue's job, not the ring's.
func pickBounded(order []string, factor float64, healthy func(string) bool, load func(string) int64, total int64) (string, int) {
	if len(order) == 0 {
		return "", -1
	}
	if factor < 1 {
		factor = 1
	}
	// ceil(factor*(total+1)/n): the +1 admits the request being placed.
	ceiling := int64(factor*float64(total+1)/float64(len(order))) + 1
	firstHealthy, firstHealthyPos := "", -1
	for pos, b := range order {
		if !healthy(b) {
			continue
		}
		if firstHealthy == "" {
			firstHealthy, firstHealthyPos = b, pos
		}
		if load(b) < ceiling {
			return b, pos
		}
	}
	return firstHealthy, firstHealthyPos
}
