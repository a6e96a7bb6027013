// Package collective implements the cross-node communication layer of
// LiveUpdate: a tree/recursive-doubling AllGather with O(log N) rounds (the
// Gloo substitute behind paper Fig 19) and the sparse data-parallel
// priority-merge protocol of Algorithm 3.
package collective

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"liveupdate/internal/lora"
	"liveupdate/internal/simnet"
)

// MergeStats describes one priority-merge synchronization.
type MergeStats struct {
	Participants int
	RowsMerged   int // distinct (table, id) rows in the merged state
	Conflicts    int // rows modified by more than one rank

	// PayloadBytes is the sum of every participant's exported payload for
	// this sync — each rank's contribution counted exactly once. It is what
	// the ranks feed INTO the collective, not the traffic the collective
	// moves; see SyncGroup.GroupStats for the simulated wire volume.
	PayloadBytes int64
}

// RankedState tags one rank's exported LoRA state with its priority id, so
// conflict resolution depends on the rank itself rather than on the position
// of the state in the input slice.
type RankedState struct {
	Rank   int // rank/replica id; the highest rank wins conflicts
	Tables []lora.TableState
}

// PriorityMerge implements Algorithm 3 lines 8-11: given the exported LoRA
// states of R ranks (index = rank id), it computes the union of modified
// rows per table, resolving conflicts deterministically in favor of the
// highest rank id, and adopts the highest participating rank's B factor.
func PriorityMerge(states [][]lora.TableState) ([]lora.TableState, MergeStats, error) {
	ranked := make([]RankedState, len(states))
	for r, st := range states {
		ranked[r] = RankedState{Rank: r, Tables: st}
	}
	return priorityMergeRanked(ranked)
}

// priorityMergeRanked is PriorityMerge over explicitly ranked states. The
// merged result is identical for any permutation of the input slice: winners
// are chosen by comparing the contributors' Rank ids, never their slice
// positions, and the shared B factor is adopted from the highest Rank
// present. Rank ids must be distinct.
func priorityMergeRanked(states []RankedState) ([]lora.TableState, MergeStats, error) {
	if len(states) == 0 {
		return nil, MergeStats{}, fmt.Errorf("collective: no states to merge")
	}
	numTables := len(states[0].Tables)
	top := 0 // index of the highest-rank state
	seenRanks := make(map[int]bool, len(states))
	for i, st := range states {
		if len(st.Tables) != numTables {
			return nil, MergeStats{}, fmt.Errorf("collective: rank %d has %d tables, want %d",
				st.Rank, len(st.Tables), numTables)
		}
		if seenRanks[st.Rank] {
			return nil, MergeStats{}, fmt.Errorf("collective: duplicate rank id %d", st.Rank)
		}
		seenRanks[st.Rank] = true
		if st.Rank > states[top].Rank {
			top = i
		}
	}
	stats := MergeStats{Participants: len(states)}
	for _, st := range states {
		stats.PayloadBytes += lora.PayloadBytes(st.Tables)
	}

	type contribution struct {
		rank int
		u    lora.RowUpdate
	}
	merged := make([]lora.TableState, numTables)
	for t := 0; t < numTables; t++ {
		winner := make(map[int32]contribution)
		seen := make(map[int32]int)
		for _, st := range states {
			for _, u := range st.Tables[t].Rows {
				if prev, dup := winner[u.ID]; dup {
					if seen[u.ID] == 1 {
						stats.Conflicts++ // count each conflicting id once
					}
					seen[u.ID]++
					// k = max{r | i ∈ S_r}: keep the higher rank regardless
					// of input ordering.
					if st.Rank < prev.rank {
						continue
					}
				} else {
					seen[u.ID] = 1
				}
				winner[u.ID] = contribution{rank: st.Rank, u: u}
			}
		}
		rows := make([]lora.RowUpdate, 0, len(winner))
		for _, c := range winner {
			rows = append(rows, c.u)
		}
		// Map drain order is random; ids are distinct per table, so sorting
		// by id fixes the merged order.
		slices.SortFunc(rows, func(a, b lora.RowUpdate) int { return cmp.Compare(a.ID, b.ID) })
		stats.RowsMerged += len(rows)

		// B: the highest participating rank's factor wins — deterministic
		// across replicas and across input orderings.
		best := states[top].Tables[t]
		merged[t] = lora.TableState{Rows: rows, B: best.B, Rank: best.Rank}
	}
	return merged, stats, nil
}

// SyncGroup merges, prices and accounts the priority-merge synchronizations
// of a group of replica lora.Sets (the Sync step of paper Fig 7, step 3);
// the caller snapshots the replicas and publishes the merged state.
//
// Replica consistency after a sync requires the replicas to share a common
// LoRA rank: Algorithm 3 exchanges factor rows (A[i]) plus the shared B, so
// independently rank-adapted replicas would hold structurally incompatible
// factors. Deployments coordinate rank changes out of band (e.g. with the
// hourly full sync); replicas here should either disable local rank
// adaptation or adapt in lockstep.
//
// GroupStats and the cumulative counters are guarded by an internal mutex
// so a background sync can fold results in while reporting code reads
// totals. The delta-sync generation tracking shares that mutex and
// additionally assumes merges are not concurrent with each other — the
// serialization the cluster's syncMu already provides.
type SyncGroup struct {
	BandwidthBps float64
	LatencySec   float64

	topo     Topology
	delta    bool
	compress int // flate level; 0 = off

	mu    sync.Mutex
	stats GroupStats

	// Delta-sync tracking, nil unless delta is enabled. Generations are
	// 1-based sync counts (== stats.Syncs after each commit).
	acked  map[int]int64           // rank → last generation it acknowledged
	pubB   map[int]uint64          // table → fingerprint of the last published B
	bGen   map[int]int64           // table → generation the published B last changed
	rowGen map[int]map[int32]int64 // table → row id → generation it last changed
}

// Topology returns the topology pricing this group's collectives.
func (sg *SyncGroup) Topology() Topology { return sg.topo }

// GroupStats is a SyncGroup's cumulative accounting across syncs.
type GroupStats struct {
	// Syncs is the number of completed priority-merge synchronizations.
	Syncs int
	// PayloadBytes is Σ over syncs of that sync's MergeStats.PayloadBytes:
	// every rank's exported payload counted exactly once per sync. This is
	// the application-level sync volume.
	PayloadBytes int64
	// WireBytes is the traffic the simulated collective actually moves:
	// recursive-doubling AllGather rounds (on the largest per-rank payload,
	// matching the cost model of Flat.GatherTime) plus the binomial-tree
	// broadcast of the merged state. It is what the fabric bills for, and is
	// strictly larger than PayloadBytes for more than one replica.
	WireBytes int64
	// ComputeSeconds is the virtual time spent gathering and merging —
	// the phase the cluster's sync pipeline moves off the serving critical
	// path. PublishSeconds is the virtual time broadcasting and installing
	// the merged state. Their sum (plus CompressSeconds) is the total sync
	// cost.
	ComputeSeconds float64
	PublishSeconds float64

	// DeltaSavedBytes is the wire volume delta syncs avoided versus
	// shipping full payloads over the same topology; always 0 with delta
	// sync off.
	DeltaSavedBytes int64
	// CompressSavedBytes is the wire volume payload compression avoided
	// versus the uncompressed (delta-adjusted) payloads; it can go slightly
	// negative when flate framing expands tiny payloads.
	CompressSavedBytes int64
	// CompressSeconds is the modeled cpu time spent deflating sync payloads
	// — the cost knob traded against WireBytes. Always 0 with compression
	// off.
	CompressSeconds float64
}

// Seconds returns the total virtual sync time (compute + publish +
// compression cpu).
func (g GroupStats) Seconds() float64 {
	return g.ComputeSeconds + g.PublishSeconds + g.CompressSeconds
}

// GroupConfig configures a SyncGroup: uniform link parameters plus the
// pricing knobs.
type GroupConfig struct {
	BandwidthBps float64
	LatencySec   float64

	// Topology prices the gather/broadcast collectives; nil means Flat, the
	// original recursive-doubling model.
	Topology Topology
	// Delta bills only rows whose generation changed since each peer's last
	// acknowledged sync and skips unchanged shared factors. It is pure cost
	// accounting: the merge result stays bit-identical to full sync.
	Delta bool
	// CompressLevel prices flate compression of sync payloads: 0 disables,
	// 1 (fastest) … 9 (best ratio). Wire bytes shrink; CompressSeconds pays
	// for it.
	CompressLevel int
}

// NewSyncGroupWith builds a SyncGroup from an explicit configuration.
func NewSyncGroupWith(cfg GroupConfig) (*SyncGroup, error) {
	if cfg.CompressLevel < 0 || cfg.CompressLevel > 9 {
		return nil, fmt.Errorf("collective: compression level %d out of range [0,9]", cfg.CompressLevel)
	}
	topo := cfg.Topology
	if topo == nil {
		topo = Flat{}
	}
	sg := &SyncGroup{
		BandwidthBps: cfg.BandwidthBps,
		LatencySec:   cfg.LatencySec,
		topo:         topo,
		delta:        cfg.Delta,
		compress:     cfg.CompressLevel,
	}
	if cfg.Delta {
		sg.acked = make(map[int]int64)
		sg.pubB = make(map[int]uint64)
		sg.bGen = make(map[int]int64)
		sg.rowGen = make(map[int]map[int32]int64)
	}
	return sg, nil
}

// syncCost is one sync's wire/time bill, derived from the snapshots and the
// merged result.
type syncCost struct {
	computeSeconds  float64
	publishSeconds  float64
	compressSeconds float64
	wireBytes       int64
	deltaSaved      int64
	compressSaved   int64

	// tracking stages the delta bookkeeping to apply at commit (nil when
	// delta sync is off).
	tracking *deltaTracking
}

// priceSync prices one sync's collective over the configured topology:
// a gather paced by the largest per-rank payload, a broadcast of the merged
// state, and — when enabled — delta tailoring and flate compression of both.
// It never touches the clock or the cumulative stats (delta tracking maps
// are read, not written, under sg.mu).
func (sg *SyncGroup) priceSync(states []RankedState, merged []lora.TableState) syncCost {
	n := len(states)
	topo := sg.topo

	// Full sizing: the pacing (largest) per-rank payload and the merged
	// payload — the classic bill, and the baseline delta savings are
	// measured against. Pacing ties break toward the higher rank id so the
	// bill is invariant under input permutations.
	var maxFull, sumFull int64
	pacing := 0
	for i, st := range states {
		p := lora.PayloadBytes(st.Tables)
		sumFull += p
		if p > maxFull || (p == maxFull && st.Rank > states[pacing].Rank) {
			maxFull = p
			pacing = i
		}
	}
	mergedFull := lora.PayloadBytes(merged)

	var cost syncCost
	perRank, mergedSize, sumRaw := maxFull, mergedFull, sumFull
	pacingTables := states[pacing].Tables
	pubTables := merged

	if sg.delta {
		ds := sg.deltaSize(states, merged)
		perRank, mergedSize, sumRaw = ds.perRank, ds.merged, ds.sum
		pacingTables, pubTables = ds.pacing, ds.pub
		cost.tracking = ds.track
		cost.wireBytes += ds.backBytes
		cost.publishSeconds += ds.backSecs
		wireFull := topo.GatherBytes(n, maxFull, mergedFull) + topo.BroadcastBytes(n, mergedFull)
		wireEff := topo.GatherBytes(n, perRank, mergedSize) + topo.BroadcastBytes(n, mergedSize) + ds.backBytes
		cost.deltaSaved = wireFull - wireEff
	}

	if sg.compress > 0 {
		// Deflate the two pacing payloads for real — deterministic sizes —
		// and bill cpu for every byte the fleet would push through flate:
		// each rank's contribution once, plus the merged state once.
		zPacing := compressedPayloadBytes(pacingTables, sg.compress)
		zMerged := compressedPayloadBytes(pubTables, sg.compress)
		wirePlain := topo.GatherBytes(n, perRank, mergedSize) + topo.BroadcastBytes(n, mergedSize)
		wireZ := topo.GatherBytes(n, zPacing, zMerged) + topo.BroadcastBytes(n, zMerged)
		cost.compressSaved = wirePlain - wireZ
		cost.compressSeconds = float64(sumRaw+mergedSize) / compressThroughputBps(sg.compress)
		perRank, mergedSize = zPacing, zMerged
	}

	cost.computeSeconds += topo.GatherTime(n, perRank, mergedSize, sg.BandwidthBps, sg.LatencySec)
	cost.publishSeconds += topo.BroadcastTime(n, mergedSize, sg.BandwidthBps, sg.LatencySec)
	cost.wireBytes += topo.GatherBytes(n, perRank, mergedSize) + topo.BroadcastBytes(n, mergedSize)
	return cost
}

// SyncRanked runs one priority-merge sync over pre-taken ranked snapshots:
// Algorithm 3, collective pricing, cost charged to the clock (a nil clock
// skips the charge), accounting folded into the group totals. It returns the
// merged state and the sync generation to stamp on published versions.
// Snapshotting and publication stay with the caller — an elastic fleet
// snapshots whatever members its live view holds — and calls must not
// overlap.
func (sg *SyncGroup) SyncRanked(c *simnet.Clock, states []RankedState) ([]lora.TableState, MergeStats, int64, error) {
	merged, stats, err := priorityMergeRanked(states)
	if err != nil {
		return nil, stats, 0, err
	}
	cost := sg.priceSync(states, merged)
	if c != nil {
		c.Advance(cost.computeSeconds + cost.publishSeconds + cost.compressSeconds)
	}
	sg.mu.Lock()
	defer sg.mu.Unlock()
	sg.stats.Syncs++
	sg.stats.PayloadBytes += stats.PayloadBytes
	sg.stats.WireBytes += cost.wireBytes
	sg.stats.ComputeSeconds += cost.computeSeconds
	sg.stats.PublishSeconds += cost.publishSeconds
	sg.stats.CompressSeconds += cost.compressSeconds
	sg.stats.DeltaSavedBytes += cost.deltaSaved
	sg.stats.CompressSavedBytes += cost.compressSaved
	gen := int64(sg.stats.Syncs)
	if cost.tracking != nil {
		sg.applyTrackingLocked(cost.tracking, gen)
	}
	return merged, stats, gen, nil
}

// GroupStats returns the full cumulative accounting.
func (sg *SyncGroup) GroupStats() GroupStats {
	sg.mu.Lock()
	defer sg.mu.Unlock()
	return sg.stats
}
