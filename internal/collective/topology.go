package collective

import (
	"fmt"
	"math"
)

// Kind names a sync collective topology and prices the two phases of one
// priority-merge sync on it — the gather (collect every rank's exported
// payload to form the merge) and the broadcast (publish the merged state
// back to every rank) — on uniform full-duplex links. It is the string form
// used by cluster configuration and CLI flags; the empty Kind means flat.
// Pricing is a pure cost model: the merge result itself is computed by
// the priority merge and is identical under every topology; only the
// virtual time and wire bytes charged differ.
//
// perRank is the largest single rank's payload (the pacing payload of the
// gather), merged is the priority-merged result's payload. Hierarchical
// topologies forward partial merges instead of concatenations, so their hop
// payload is max(perRank, merged) — a partial priority merge can never
// exceed the final merged payload plus one rank's unmerged contribution.
type Kind string

const (
	// TopologyFlat is the original recursive-doubling AllGather plus
	// binomial broadcast: every rank ends the gather holding every other
	// rank's payload — the accumulated block doubles each round, so the
	// gather moves n·(2^rounds−1)·perRank, quadratic in the fleet size.
	TopologyFlat Kind = "flat"
	// TopologyRing is a pipelined, chunked ring: the gather reduces partial
	// merges around the ring in n−1 steps, each moving a 1/n chunk of the hop
	// payload per link, and the broadcast pipelines the merged state the
	// other way. Bandwidth-optimal (each link carries ~one payload) but
	// latency-serial (n−1 hops).
	TopologyRing Kind = "ring"
	// TopologyTree is a binomial reduce + binomial broadcast: ceil(log2 n)
	// rounds each way, every reduce hop carrying a partial merge of at most
	// max(perRank, merged): linear wire volume at logarithmic depth.
	TopologyTree Kind = "tree"
)

// Topologies lists the supported topology kinds in presentation order.
func Topologies() []Kind { return []Kind{TopologyFlat, TopologyRing, TopologyTree} }

// ParseTopology validates a topology kind ("flat", "ring", "tree"; empty
// defaults to flat) and returns it.
func ParseTopology(kind Kind) (Kind, error) {
	switch kind {
	case "":
		return TopologyFlat, nil
	case TopologyFlat, TopologyRing, TopologyTree:
		return kind, nil
	}
	return "", fmt.Errorf("collective: unknown topology %q (want flat, ring, or tree)", kind)
}

// rounds returns the collective's depth in communication rounds:
// ceil(log2 n) for recursive doubling and the binomial tree, n−1 ring steps.
func (k Kind) rounds(n int) int {
	if n <= 1 {
		return 0
	}
	switch k {
	case "", TopologyFlat, TopologyTree:
		return int(math.Ceil(math.Log2(float64(n))))
	case TopologyRing:
		return n - 1
	}
	panic(fmt.Sprintf("collective: unknown topology %q", k))
}

// Seconds returns the virtual durations of one sync's gather and broadcast
// over n ranks; both are 0 for n ≤ 1. It panics on a negative payload or a
// non-positive bandwidth.
//
// The flat gather is recursive doubling: in round r each rank exchanges its
// accumulated 2^r·perRank block with its partner, full duplex, so a round
// costs latency + block/bandwidth — O(log n) in latency and O(n) in bytes,
// the favorable scaling of Fig 19 — and the merged size is ignored. Every
// other phase is rounds × (latency + step/bandwidth), where a step is the
// phase's payload (max(perRank, merged) for a reduce, merged for a
// broadcast), cut into n chunks on the ring.
func (k Kind) Seconds(n int, perRank, merged int64, bandwidthBps, latencySec float64) (gather, broadcast float64) {
	if n <= 1 {
		return 0, 0
	}
	checkPayloads(perRank, merged)
	if bandwidthBps <= 0 {
		panic("collective: bandwidth must be positive")
	}
	rounds := k.rounds(n)
	phase := func(p int64) float64 {
		step := float64(p)
		if k == TopologyRing {
			step /= float64(n)
		}
		return float64(rounds) * (latencySec + step/bandwidthBps)
	}
	broadcast = phase(merged)
	if k == TopologyRing || k == TopologyTree {
		return phase(max(perRank, merged)), broadcast
	}
	block := float64(perRank)
	for r := 0; r < rounds; r++ {
		gather += latencySec + block/bandwidthBps
		block *= 2
	}
	return gather, broadcast
}

// wireBytes returns the traffic one sync's gather and broadcast move over n
// ranks: the flat gather n·(2^rounds−1)·perRank, a reduce n−1 hops of
// max(perRank, merged), and every broadcast n−1 transmissions of the merged
// payload (rounds overlap in time, not in traffic).
func (k Kind) wireBytes(n int, perRank, merged int64) int64 {
	if n <= 1 {
		return 0
	}
	checkPayloads(perRank, merged)
	broadcast := int64(n-1) * merged
	if k == TopologyRing || k == TopologyTree {
		return int64(n-1)*max(perRank, merged) + broadcast
	}
	return int64(n)*((1<<k.rounds(n))-1)*perRank + broadcast
}

func checkPayloads(perRank, merged int64) {
	if perRank < 0 || merged < 0 {
		panic("collective: negative payload")
	}
}
