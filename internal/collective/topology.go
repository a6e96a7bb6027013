package collective

import (
	"fmt"
	"math"
)

// Kind names a sync collective topology. It is the string form used by
// cluster configuration and CLI flags.
type Kind string

const (
	// TopologyFlat is the original recursive-doubling AllGather plus
	// binomial broadcast: every rank ends the gather holding every other
	// rank's payload, so the wire bill is quadratic in the fleet size.
	TopologyFlat Kind = "flat"
	// TopologyRing is a pipelined, chunked ring: the gather reduces around
	// the ring and the broadcast pipelines the merged state the other way.
	// Bandwidth-optimal (each link carries ~one payload) but latency-serial
	// (n−1 hops).
	TopologyRing Kind = "ring"
	// TopologyTree is a binomial reduce + binomial broadcast: ceil(log2 n)
	// rounds each way, with partial merges bounded by the final merged
	// payload: the log-depth topology.
	TopologyTree Kind = "tree"
)

// Topologies lists the supported topology kinds in presentation order.
func Topologies() []Kind { return []Kind{TopologyFlat, TopologyRing, TopologyTree} }

// Topology prices the two phases of one priority-merge sync — the gather
// (collect every rank's exported payload to form the merge) and the
// broadcast (publish the merged state back to every rank) — on uniform
// full-duplex links. Implementations are pure cost models: the merge result
// itself is computed by priorityMergeRanked and is identical under every
// topology; only the virtual time and wire bytes charged differ.
//
// perRank is the largest single rank's payload (the pacing payload of the
// gather), merged is the priority-merged result's payload. Hierarchical
// topologies forward partial merges instead of concatenations, so their hop
// payload is max(perRank, merged) — a partial priority merge can never
// exceed the final merged payload plus one rank's unmerged contribution.
type Topology interface {
	// Kind returns the topology's registry name.
	Kind() Kind
	// Rounds returns the collective's depth in communication rounds.
	Rounds(n int) int
	// GatherTime returns the virtual duration of the gather phase.
	GatherTime(n int, perRank, merged int64, bandwidthBps, latencySec float64) float64
	// GatherBytes returns the wire volume the gather phase moves.
	GatherBytes(n int, perRank, merged int64) int64
	// BroadcastTime returns the virtual duration of publishing size bytes
	// to all n ranks.
	BroadcastTime(n int, size int64, bandwidthBps, latencySec float64) float64
	// BroadcastBytes returns the wire volume of publishing size bytes to
	// all n ranks.
	BroadcastBytes(n int, size int64) int64
}

// ParseTopology resolves a topology kind ("flat", "ring", "tree"; empty
// defaults to flat) to its implementation.
func ParseTopology(kind Kind) (Topology, error) {
	switch kind {
	case "", TopologyFlat:
		return Flat{}, nil
	case TopologyRing:
		return ringTopology{}, nil
	case TopologyTree:
		return treeTopology{}, nil
	}
	return nil, fmt.Errorf("collective: unknown topology %q (want flat, ring, or tree)", kind)
}

// ceilLog2 returns ceil(log2(n)) for n > 1, 0 otherwise — the round count
// shared by recursive doubling and the binomial tree.
func ceilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(n))))
}

func checkPayload(bytes int64) {
	if bytes < 0 {
		panic("collective: negative payload")
	}
}

func checkBandwidth(bandwidthBps float64) {
	if bandwidthBps <= 0 {
		panic("collective: bandwidth must be positive")
	}
}

// hopPayload is the per-hop payload of a hierarchical (ring/tree) collective:
// partials are priority merges, so a hop carries at most the larger of one
// rank's contribution and the final merged state.
func hopPayload(perRank, merged int64) int64 {
	checkPayload(perRank)
	checkPayload(merged)
	if perRank > merged {
		return perRank
	}
	return merged
}

// Flat is the original cost model: recursive-doubling AllGather (every rank
// ends up holding every rank's raw payload — the accumulated block doubles
// each round, so the fleet-wide traffic is n·(2^rounds−1)·perRank) plus a
// binomial-tree broadcast of the merged state.
type Flat struct{}

// Kind implements Topology.
func (Flat) Kind() Kind { return TopologyFlat }

// Rounds implements Topology: ceil(log2 n) recursive-doubling rounds.
func (Flat) Rounds(n int) int { return ceilLog2(n) }

// GatherTime implements Topology. The merged payload is ignored: a flat
// AllGather ships raw concatenations, never partial merges. In round r each
// rank exchanges its accumulated 2^r·perRank block with its partner, full
// duplex, so a round costs latency + block/bandwidth: O(log n) in latency
// and O(n) in bytes, the favorable scaling of Fig 19.
func (Flat) GatherTime(n int, perRank, _ int64, bandwidthBps, latencySec float64) float64 {
	if n <= 1 {
		return 0
	}
	checkPayload(perRank)
	checkBandwidth(bandwidthBps)
	total := 0.0
	block := float64(perRank)
	for r := 0; r < ceilLog2(n); r++ {
		total += latencySec + block/bandwidthBps
		block *= 2
	}
	return total
}

// GatherBytes implements Topology: n·(2^rounds − 1)·perRank.
func (Flat) GatherBytes(n int, perRank, _ int64) int64 {
	if n <= 1 {
		return 0
	}
	checkPayload(perRank)
	return int64(n) * ((1 << ceilLog2(n)) - 1) * perRank
}

// BroadcastTime implements Topology: ceil(log2 n) rounds, each shipping the
// full payload one hop.
func (Flat) BroadcastTime(n int, size int64, bandwidthBps, latencySec float64) float64 {
	if n <= 1 {
		return 0
	}
	checkPayload(size)
	checkBandwidth(bandwidthBps)
	return float64(ceilLog2(n)) * (latencySec + float64(size)/bandwidthBps)
}

// BroadcastBytes implements Topology: n−1 point-to-point transmissions of
// the full payload (rounds overlap in time, not in traffic).
func (Flat) BroadcastBytes(n int, size int64) int64 {
	if n <= 1 {
		return 0
	}
	checkPayload(size)
	return int64(n-1) * size
}

// treeTopology is a binomial reduce followed by a binomial broadcast. In each of the
// ceil(log2 n) reduce rounds, half the live subtree roots ship their partial
// priority merge one hop and drop out; a partial merge is bounded by
// max(perRank, merged), so every hop carries at most that. Total gather
// traffic is n−1 hops — linear in the fleet, against flat's quadratic — and
// gather depth is logarithmic.
type treeTopology struct{}

// Kind implements Topology.
func (treeTopology) Kind() Kind { return TopologyTree }

// Rounds implements Topology: ceil(log2 n) binomial rounds.
func (treeTopology) Rounds(n int) int { return ceilLog2(n) }

// GatherTime implements Topology: rounds × (latency + hop/bandwidth), the
// depth×link charge of a binomial reduce.
func (treeTopology) GatherTime(n int, perRank, merged int64, bandwidthBps, latencySec float64) float64 {
	if n <= 1 {
		return 0
	}
	hop := hopPayload(perRank, merged)
	checkBandwidth(bandwidthBps)
	return float64(ceilLog2(n)) * (latencySec + float64(hop)/bandwidthBps)
}

// GatherBytes implements Topology: n−1 hops of at most max(perRank, merged).
func (treeTopology) GatherBytes(n int, perRank, merged int64) int64 {
	if n <= 1 {
		return 0
	}
	return int64(n-1) * hopPayload(perRank, merged)
}

// BroadcastTime implements Topology: the same binomial broadcast Flat uses.
func (treeTopology) BroadcastTime(n int, size int64, bandwidthBps, latencySec float64) float64 {
	return Flat{}.BroadcastTime(n, size, bandwidthBps, latencySec)
}

// BroadcastBytes implements Topology: n−1 transmissions of the full payload.
func (treeTopology) BroadcastBytes(n int, size int64) int64 {
	return Flat{}.BroadcastBytes(n, size)
}

// ringTopology is a pipelined, chunked ring. The gather reduces partial merges
// around the ring in n−1 steps, each moving a 1/n chunk of the hop payload
// per link; the broadcast pipelines the merged state back the other way.
// Bandwidth-optimal — each link carries roughly one payload total, so wire
// volume matches treeTopology's n−1 hops — but the n−1 step latency term makes it
// the long-thin-pipe choice, not the low-latency one.
type ringTopology struct{}

// Kind implements Topology.
func (ringTopology) Kind() Kind { return TopologyRing }

// Rounds implements Topology: n−1 ring steps.
func (ringTopology) Rounds(n int) int {
	if n <= 1 {
		return 0
	}
	return n - 1
}

// GatherTime implements Topology: (n−1) × (latency + (hop/n)/bandwidth).
func (ringTopology) GatherTime(n int, perRank, merged int64, bandwidthBps, latencySec float64) float64 {
	if n <= 1 {
		return 0
	}
	hop := hopPayload(perRank, merged)
	checkBandwidth(bandwidthBps)
	chunk := float64(hop) / float64(n)
	return float64(n-1) * (latencySec + chunk/bandwidthBps)
}

// GatherBytes implements Topology: n−1 links each carrying the chunked hop
// payload once — (n−1)·hop in total, same linear volume as treeTopology.
func (ringTopology) GatherBytes(n int, perRank, merged int64) int64 {
	if n <= 1 {
		return 0
	}
	return int64(n-1) * hopPayload(perRank, merged)
}

// BroadcastTime implements Topology: the merged state pipelines around the
// ring in n−1 chunked steps.
func (ringTopology) BroadcastTime(n int, size int64, bandwidthBps, latencySec float64) float64 {
	if n <= 1 {
		return 0
	}
	checkPayload(size)
	checkBandwidth(bandwidthBps)
	chunk := float64(size) / float64(n)
	return float64(n-1) * (latencySec + chunk/bandwidthBps)
}

// BroadcastBytes implements Topology: every link forwards the full payload
// once (in chunks), so n−1 payloads total.
func (ringTopology) BroadcastBytes(n int, size int64) int64 {
	if n <= 1 {
		return 0
	}
	checkPayload(size)
	return int64(n-1) * size
}
