// Consistent-hash routing for the gateway. The Router abstraction is
// deliberately narrow — given a job's route key and the current
// per-replica health, name the replica — so richer topologies (the
// Benes-style control-optimal networks of the related work) can back a
// future tier without touching the fan-out machinery.

package gateway

import (
	"fmt"
	"sort"
)

// Router maps route keys onto replica indices. A route key is a short
// fixed-width digest of a job's instance bytes (see instanceKey), or of
// the path and body of a request without an instance; equal keys must
// route alike, and any two jobs may share a replica. Implementations
// must be safe for concurrent use and stateless with respect to health:
// the gateway passes the current health view on every call, so a router
// never caches liveness.
type Router interface {
	// Replicas returns the number of replica slots the router was built
	// for.
	Replicas() int
	// Route returns the replica that should own key, skipping replicas
	// for which healthy reports false. ok is false when no healthy
	// replica exists. Routing must be deterministic: the same key against
	// the same health view always names the same replica.
	Route(key string, healthy func(int) bool) (replica int, ok bool)
}

// Ring is a consistent-hash ring over replica indices. Each replica owns
// a set of virtual points on the ring; a key belongs to the first point
// clockwise from its hash. Virtual points smooth the key distribution and
// keep reassignment local when a replica leaves: only the keys whose
// owning point belonged to the dead replica move, each to its ring
// successor, so the other replicas' memo and plan caches stay hot.
type Ring struct {
	replicas int
	points   []ringPoint // sorted by hash
}

type ringPoint struct {
	hash    uint64
	replica int
}

// DefaultVirtualNodes is the per-replica virtual point count used by
// NewRing when vnodes <= 0. With 3 replicas they own 33.9%, 32.2% and
// 33.9% of the hash space, and 30 000 random keys split 10255 / 9669 /
// 10076 (max/min 1.06; TestRingBalance). The spread grows with the
// cluster: 1.40 with 5 replicas, 1.77 with 8.
const DefaultVirtualNodes = 64

// mix is MurmurHash3's 64-bit finalizer (fmix64). FNV-1a's last input
// bytes move only the low-order bits of its state, so the points of
// consecutive virtual nodes, and keys that differ only at the end, would
// clump on the ring; mixing spreads every input bit over the whole
// hash. NewRing and Route both pass their hashes through it.
func mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb93fe53ec3b5
	h ^= h >> 33
	return h
}

// NewRing builds a consistent-hash ring over replicas indices 0..n-1 with
// the given number of virtual points per replica (vnodes <= 0 means
// DefaultVirtualNodes). It panics if n <= 0 — a gateway without replicas
// is a configuration error, not a runtime condition.
func NewRing(n, vnodes int) *Ring {
	if n <= 0 {
		panic("gateway: NewRing needs at least one replica")
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	r := &Ring{replicas: n, points: make([]ringPoint, 0, n*vnodes)}
	for rep := 0; rep < n; rep++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:    mix(fnv1a(fnvOffset, fmt.Sprintf("replica-%d/vnode-%d", rep, v))),
				replica: rep,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// Replicas implements Router.
func (r *Ring) Replicas() int { return r.replicas }

// Route implements Router: binary-search the first virtual point at or
// clockwise past the key's hash, then walk the ring until a healthy
// replica owns a point. The walk stops after one lap, so a fully
// unhealthy cluster answers ok=false instead of spinning, and it
// allocates nothing.
func (r *Ring) Route(key string, healthy func(int) bool) (int, bool) {
	h := mix(fnv1a(fnvOffset, key))
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points); i++ {
		rep := r.points[(start+i)%len(r.points)].replica
		if healthy == nil || healthy(rep) {
			return rep, true
		}
	}
	return 0, false
}
