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
//
// Each table is one sort: every (rank, row) pair goes into one buffer,
// ordered by id ascending then rank descending, and each id's first entry
// wins. Merged rows come out ascending by id.
func priorityMergeRanked(states []RankedState) ([]lora.TableState, MergeStats, error) {
	if len(states) == 0 {
		return nil, MergeStats{}, fmt.Errorf("collective: no states to merge")
	}
	numTables := len(states[0].Tables)
	top := 0 // index of the highest-rank state
	stats := MergeStats{Participants: len(states)}
	for i, st := range states {
		if len(st.Tables) != numTables {
			return nil, MergeStats{}, fmt.Errorf("collective: rank %d has %d tables, want %d",
				st.Rank, len(st.Tables), numTables)
		}
		if slices.ContainsFunc(states[:i], func(o RankedState) bool { return o.Rank == st.Rank }) {
			return nil, MergeStats{}, fmt.Errorf("collective: duplicate rank id %d", st.Rank)
		}
		if st.Rank > states[top].Rank {
			top = i
		}
		stats.PayloadBytes += lora.PayloadBytes(st.Tables)
	}

	type rankedRow struct {
		rank int
		u    lora.RowUpdate
	}
	largest := 0
	for t := 0; t < numTables; t++ {
		n := 0
		for _, st := range states {
			n += len(st.Tables[t].Rows)
		}
		largest = max(largest, n)
	}
	buf := make([]rankedRow, 0, largest)
	merged := make([]lora.TableState, numTables)
	for t := 0; t < numTables; t++ {
		buf = buf[:0]
		for _, st := range states {
			for _, u := range st.Tables[t].Rows {
				buf = append(buf, rankedRow{rank: st.Rank, u: u})
			}
		}
		// k = max{r | i ∈ S_r}: within an id, the highest rank sorts first.
		slices.SortFunc(buf, func(a, b rankedRow) int {
			if c := cmp.Compare(a.u.ID, b.u.ID); c != 0 {
				return c
			}
			return cmp.Compare(b.rank, a.rank)
		})
		first := func(i int) bool { return i == 0 || buf[i].u.ID != buf[i-1].u.ID }
		distinct := 0
		for i := range buf {
			if first(i) {
				distinct++
			}
		}
		rows := make([]lora.RowUpdate, 0, distinct)
		for i, r := range buf {
			if first(i) {
				rows = append(rows, r.u)
			} else if first(i - 1) {
				stats.Conflicts++ // count each conflicting id once
			}
		}
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
// GroupStats, the cumulative counters and the delta-sync ledger are guarded
// by one internal mutex, held by SyncRanked from pricing through commit, so
// reporting code can read totals while a background sync runs. Calls to
// SyncRanked must not overlap — the serialization the cluster's syncMu
// already provides.
type SyncGroup struct {
	BandwidthBps float64
	LatencySec   float64

	kind     Kind
	delta    bool
	compress int // flate level; 0 = off

	mu    sync.Mutex
	stats GroupStats

	// Delta-sync ledger, nil unless delta is enabled. Generations are
	// 1-based sync counts (== stats.Syncs after each commit).
	acked  map[int]int64           // rank → last generation it acknowledged
	pubB   map[int]uint64          // table → fingerprint of the last published B
	bGen   map[int]int64           // table → generation the published B last changed
	rowGen map[int]map[int32]int64 // table → row id → generation it last changed
}

// Kind returns the topology pricing this group's collectives.
func (sg *SyncGroup) Kind() Kind { return sg.kind }

// GroupStats is a SyncGroup's cumulative accounting across syncs.
type GroupStats struct {
	// Syncs is the number of completed priority-merge synchronizations.
	Syncs int
	// PayloadBytes is Σ over syncs of that sync's MergeStats.PayloadBytes:
	// every rank's exported payload counted exactly once per sync. This is
	// the application-level sync volume.
	PayloadBytes int64
	// WireBytes is the traffic the simulated collective actually moves over
	// the group's topology: the gather (paced by the largest per-rank
	// payload) plus the broadcast of the merged state, after delta and
	// compression savings, plus any delta backfills — the bill of
	// Kind.Seconds' two phases in bytes. It is what the fabric bills for,
	// and is strictly larger than PayloadBytes for more than one replica.
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

// add folds one sync's bill into the totals.
func (g *GroupStats) add(d GroupStats) {
	g.Syncs += d.Syncs
	g.PayloadBytes += d.PayloadBytes
	g.WireBytes += d.WireBytes
	g.ComputeSeconds += d.ComputeSeconds
	g.PublishSeconds += d.PublishSeconds
	g.DeltaSavedBytes += d.DeltaSavedBytes
	g.CompressSavedBytes += d.CompressSavedBytes
	g.CompressSeconds += d.CompressSeconds
}

// GroupConfig configures a SyncGroup: uniform link parameters plus the
// pricing knobs.
type GroupConfig struct {
	BandwidthBps float64
	LatencySec   float64

	// Topology prices the gather/broadcast collectives; empty means flat,
	// the original recursive-doubling model.
	Topology Kind
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
	kind, err := ParseTopology(cfg.Topology)
	if err != nil {
		return nil, err
	}
	sg := &SyncGroup{
		BandwidthBps: cfg.BandwidthBps,
		LatencySec:   cfg.LatencySec,
		kind:         kind,
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

// priceLocked prices one sync's collective over the group's topology and
// returns its increment to the totals: a gather paced by the largest
// per-rank payload, a broadcast of the merged state, and — when enabled —
// delta tailoring and flate compression of both. With delta on it also
// records the sync as generation gen in the ledger. Caller holds sg.mu.
func (sg *SyncGroup) priceLocked(states []RankedState, merged []lora.TableState, gen int64) GroupStats {
	n, k := len(states), sg.kind

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

	inc := GroupStats{Syncs: 1, PayloadBytes: sumFull}
	perRank, mergedSize, sumRaw := maxFull, mergedFull, sumFull
	pacingTables, pubTables := states[pacing].Tables, merged
	wire := k.wireBytes(n, perRank, mergedSize)
	var back deltaSizing
	if sg.delta {
		back = sg.deltaLocked(states, merged, gen)
		perRank, mergedSize, sumRaw = back.perRank, back.merged, back.sum
		pacingTables, pubTables = back.pacing, back.pub
		full := wire
		wire = k.wireBytes(n, perRank, mergedSize)
		inc.DeltaSavedBytes = full - (wire + back.backBytes)
	}

	if sg.compress > 0 {
		// Deflate the two pacing payloads for real — deterministic sizes —
		// and bill cpu for every byte the fleet would push through flate:
		// each rank's contribution once, plus the merged state once.
		zPacing := compressedPayloadBytes(pacingTables, sg.compress)
		zMerged := compressedPayloadBytes(pubTables, sg.compress)
		wireZ := k.wireBytes(n, zPacing, zMerged)
		inc.CompressSavedBytes = wire - wireZ
		inc.CompressSeconds = float64(sumRaw+mergedSize) / compressThroughputBps(sg.compress)
		perRank, mergedSize, wire = zPacing, zMerged, wireZ
	}

	gather, broadcast := k.Seconds(n, perRank, mergedSize, sg.BandwidthBps, sg.LatencySec)
	inc.ComputeSeconds = gather
	inc.PublishSeconds = back.backSecs + broadcast
	inc.WireBytes = back.backBytes + wire
	return inc
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
	sg.mu.Lock()
	defer sg.mu.Unlock()
	gen := int64(sg.stats.Syncs) + 1
	inc := sg.priceLocked(states, merged, gen)
	if c != nil {
		c.Advance(inc.Seconds())
	}
	sg.stats.add(inc)
	return merged, stats, gen, nil
}

// GroupStats returns the full cumulative accounting.
func (sg *SyncGroup) GroupStats() GroupStats {
	sg.mu.Lock()
	defer sg.mu.Unlock()
	return sg.stats
}
