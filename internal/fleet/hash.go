// Package fleet is the horizontal scale-out tier: a stateless L7 router
// that speaks the wire protocol on both sides, placing agreement instances
// on a set of cmd/serve backends by consistent hashing, multiplexing many
// client connections onto a few pipelined backend connections, shedding
// per-tenant overload with an explicit RESOURCE_EXHAUSTED-style status,
// and keeping the backend set health-checked with jittered-backoff
// redial and live drain-on-removal.
//
// Placement is keyed by request shape (N, m, u, sender): the service
// batches identically-shaped instances on one pooled node complement, so
// landing a shape consistently on the same backend is what makes that
// amortization survive scale-out.
//
// ServeMain and RouterMain are the whole of cmd/serve and cmd/router.
package fleet

import (
	"sort"
	"sync"

	"degradable/internal/service"
)

// FNV-1a 64-bit, inlined so vnode and key hashing share one definition.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

func fnvUint64(h, v uint64) uint64 {
	for shift := 0; shift < 64; shift += 8 {
		h = fnvByte(h, byte(v>>shift))
	}
	return h
}

// mix64 finalizes a hash (the 64-bit murmur3 finalizer): FNV-1a over
// near-identical strings (backend addresses differing in one byte, vnode
// indices) leaves the high bits poorly diffused, which skews ring-position
// and rendezvous comparisons badly enough to break the remap bound. The
// finalizer is deterministic, so placement stays coordination-free.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// ShapeKey is the placement key of a request: a hash of the batching shape
// (N, m, u, sender), so identically-shaped instances land on the same
// backend and its shard batching keeps amortizing setup across them.
func ShapeKey(req service.Request) uint64 {
	h := uint64(fnvOffset)
	h = fnvByte(h, byte(req.N))
	h = fnvByte(h, byte(req.M))
	h = fnvByte(h, byte(req.U))
	h = fnvByte(h, byte(req.Sender))
	return mix64(h)
}

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash   uint64
	member string
}

// Ring is a consistent-hash circle with virtual nodes. Adding or removing
// one member remaps only the keys whose successor vnodes belonged to it —
// about keys/members of them — and every other key keeps its placement,
// which is the property the stability test pins. Hashing is deterministic
// (FNV-1a of member and vnode index), so every router instance computes
// the same placement without coordination.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	points []ringPoint // sorted by hash
}

// NewRing returns an empty ring with the given virtual-node count per
// member (more vnodes → smoother key spread, slower membership changes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	return &Ring{vnodes: vnodes}
}

// vnodeHash hashes one virtual node of a member.
func vnodeHash(member string, i int) uint64 {
	h := fnvString(fnvOffset, member)
	h = fnvByte(h, '#')
	h = fnvByte(h, byte(i))
	return mix64(fnvByte(h, byte(i>>8)))
}

// Add inserts a member's virtual nodes. Adding an existing member is a
// no-op (its vnodes hash identically and are deduplicated).
func (r *Ring) Add(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range r.points {
		if p.member == member {
			return
		}
	}
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: vnodeHash(member, i), member: member})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
}

// Remove deletes a member's virtual nodes.
func (r *Ring) Remove(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Members returns the current member set in sorted order.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	seen := make(map[string]bool)
	var members []string
	for _, p := range r.points {
		if !seen[p.member] {
			seen[p.member] = true
			members = append(members, p.member)
		}
	}
	sort.Strings(members)
	return members
}

// Lookup returns the key's primary member (its successor vnode's owner).
func (r *Ring) Lookup(key uint64) (string, bool) {
	return r.Walk(key, func(string) bool { return true })
}

// Walk visits distinct members in ring preference order for key — the
// successor vnode's owner first, then onward around the circle — until
// accept returns true. It returns the accepted member. This is the
// bounded-load walk: the router's accept closure rejects members that are
// unhealthy, draining, or over the load ceiling, and the walk naturally
// falls through to the next-preferred member.
func (r *Ring) Walk(key uint64, accept func(member string) bool) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := len(r.points)
	if n == 0 {
		return "", false
	}
	start := sort.Search(n, func(i int) bool { return r.points[i].hash >= key })
	seen := make(map[string]bool)
	for i := 0; i < n; i++ {
		p := r.points[(start+i)%n]
		if seen[p.member] {
			continue
		}
		seen[p.member] = true
		if accept(p.member) {
			return p.member, true
		}
	}
	return "", false
}

// Rendezvous picks a member by highest-random-weight hashing: the member
// whose (member, key) hash is largest wins. It is the fallback placement
// when the bounded-load ring walk accepts nobody (every survivor at
// capacity): still deterministic per key, and independent of ring
// geometry, so a degenerate ring cannot funnel the spill onto one member.
func Rendezvous(members []string, key uint64) (string, bool) {
	if len(members) == 0 {
		return "", false
	}
	best, bestHash := "", uint64(0)
	for _, m := range members {
		h := mix64(fnvUint64(fnvString(fnvOffset, m), key))
		if best == "" || h > bestHash || (h == bestHash && m < best) {
			best, bestHash = m, h
		}
	}
	return best, true
}
