package fleet

import (
	"sort"

	"liveupdate/internal/trace"
)

// Consistent-hash ring over the active members of a View. Each member owns
// ringVNodes pseudo-random points on a 64-bit ring; a key is served by the
// first member point at or clockwise of the key's hash. Membership changes
// therefore only remap the keys in the arcs a member's points cover —
// roughly a 1/N share per single join or leave — instead of reshuffling the
// whole keyspace the way `hash(key) mod N` does.

// ringVNodes is the per-member virtual-node count: enough points that a
// member's keyspace share concentrates near 1/N without making ring builds
// (one per membership change) expensive.
const ringVNodes = 64

type ringPoint struct {
	hash uint64
	m    *Member
}

type ring struct {
	points []ringPoint // sorted by hash
}

// newRing places ringVNodes points per member. Point positions depend only on
// the member's stable ID, never on its slot or the current fleet size, so a
// member's arcs survive other members' churn untouched.
func newRing(members []*Member) *ring {
	r := &ring{points: make([]ringPoint, 0, len(members)*ringVNodes)}
	for _, m := range members {
		base := uint64(m.ID) * 0x9e3779b97f4a7c15
		for v := 0; v < ringVNodes; v++ {
			r.points = append(r.points, ringPoint{hash: mix64(base + uint64(v)), m: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Ties (astronomically rare) break on the stable member ID so the
		// ring layout is identical no matter the build order.
		return r.points[i].m.ID < r.points[j].m.ID
	})
	return r
}

// lookup returns the member owning hash h, or nil on an empty ring.
func (r *ring) lookup(h uint64) *Member {
	if r == nil || len(r.points) == 0 {
		return nil
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: keys past the last point belong to the first
	}
	return r.points[i].m
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit mix
// for placing virtual nodes.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SampleKey hashes a request's sparse feature ids (FNV-1a over (table, id)
// pairs) to its ring key: identical sparse feature sets always map to the
// same key, giving the embedding locality the hash routing policy exists for.
func SampleKey(s trace.Sample) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint32) {
		for shift := 0; shift < 32; shift += 8 {
			h ^= uint64(byte(v >> shift))
			h *= prime64
		}
	}
	for t, ids := range s.Sparse {
		mix(uint32(t))
		for _, id := range ids {
			mix(uint32(id))
		}
	}
	return h
}
