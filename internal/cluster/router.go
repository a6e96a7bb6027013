package cluster

import (
	"fmt"
	"sync/atomic"

	"liveupdate/internal/trace"
)

// Router picks the replica that serves a request. The interface is sealed:
// NewRouter builds the built-in policies, the only implementations. A policy
// may keep state (e.g. a round-robin cursor); a Router instance belongs to
// exactly one Cluster. route must be safe for concurrent callers — the
// built-in policies are lock-free — though stateful policies only produce a
// deterministic assignment when requests are routed in a deterministic order
// (the load-driver routes from a single sequencer goroutine for exactly this
// reason).
//
// A Router routes against the live membership view, so it keeps working
// across joins, leaves, and failures with no locking: the view (with its
// prebuilt consistent-hash ring and active list) swaps behind one atomic
// pointer.
type Router interface {
	// route picks the serving member for s from v's active members, or
	// nil when there is none.
	route(s trace.Sample, v *View) *member
	// Name identifies the policy in stats output and CLI flags.
	Name() string
}

// Policy names a built-in routing policy.
type Policy string

const (
	// RoundRobin cycles through the active replicas in order — uniform
	// load, no locality.
	RoundRobin Policy = "round-robin"
	// LeastLoaded sends each request to the active replica with the
	// smallest virtual-time backlog, absorbing skew at the cost of locality.
	LeastLoaded Policy = "least-loaded"
	// Hash shards by the request's sparse feature ids over a consistent-hash
	// ring keyed on stable member identities, so requests touching the same
	// embedding rows land on the same replica (embedding locality: hot rows
	// stay resident in one replica's cache and LoRA support) AND a single
	// membership change only remaps ~1/N of the keyspace — the failed
	// member's arcs move, everyone else's keys stay put.
	Hash Policy = "hash"
)

// Policies lists the built-in routing policies in presentation order.
func Policies() []Policy { return []Policy{RoundRobin, LeastLoaded, Hash} }

// NewRouter constructs a fresh router for a built-in policy.
func NewRouter(p Policy) (Router, error) {
	switch p {
	case RoundRobin:
		return &roundRobinRouter{}, nil
	case LeastLoaded:
		return leastLoadedRouter{}, nil
	case Hash:
		return hashRouter{}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown router policy %q (valid: %v)", p, Policies())
	}
}

type roundRobinRouter struct{ next atomic.Uint64 }

func (r *roundRobinRouter) route(_ trace.Sample, v *View) *member {
	active := v.active
	if len(active) == 0 {
		return nil
	}
	return active[int((r.next.Add(1)-1)%uint64(len(active)))]
}

func (r *roundRobinRouter) Name() string { return string(RoundRobin) }

type leastLoadedRouter struct{}

func (leastLoadedRouter) route(_ trace.Sample, v *View) *member {
	active := v.active
	if len(active) == 0 {
		return nil
	}
	best := active[0]
	for _, m := range active[1:] {
		if m.Sys.Clock.Now() < best.Sys.Clock.Now() {
			best = m
		}
	}
	return best
}

func (leastLoadedRouter) Name() string { return string(LeastLoaded) }

type hashRouter struct{}

func (hashRouter) route(s trace.Sample, v *View) *member {
	return v.ring.lookup(sampleKey(s))
}

func (hashRouter) Name() string { return string(Hash) }
