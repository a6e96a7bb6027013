package lora

import (
	"fmt"
	"sync/atomic"

	"liveupdate/internal/emt"
	"liveupdate/internal/tensor"
)

// Set pairs one Adapter per embedding table with a frozen base emt.Group and
// implements dlrm.EmbeddingSource: lookups serve W_base + A·B, training
// gradients flow only into the adapters (paper Fig 7).
//
// For synchronization the Set carries epoch-versioned, copy-on-write state:
// Snapshot exports the modified rows for an in-flight merge, Publish installs
// a merged state per adapter with atomic pointer swaps and stamps the epoch.
// Readers (Lookup, EffectiveRow) never block on a merge — they are
// safe concurrently with the whole publish path; only Train requires the
// owner's serialization (see the package comment on Adapter).
type Set struct {
	Base     *emt.Group
	Adapters []*Adapter

	// epoch is one more than the epoch of the last Publish: zero before the
	// first sync. Readers load it lock-free.
	epoch atomic.Int64
}

// NewSet builds adapters (one per base table) from cfg. The cfg.Dim field is
// overridden per table from the base group.
func NewSet(base *emt.Group, cfg Config) (*Set, error) {
	s := &Set{Base: base}
	for _, t := range base.Tables {
		c := cfg
		c.Dim = t.Dim
		if c.MaxRank > t.Dim {
			c.MaxRank = t.Dim
		}
		if c.CMax > t.Rows() {
			c.CMax = t.Rows()
		}
		if c.CMin > c.CMax {
			c.CMin = c.CMax
		}
		a, err := newAdapter(c)
		if err != nil {
			return nil, fmt.Errorf("lora: table %s: %w", t.Name, err)
		}
		s.Adapters = append(s.Adapters, a)
	}
	return s, nil
}

// NumTables implements dlrm.EmbeddingSource.
func (s *Set) NumTables() int { return len(s.Base.Tables) }

// Dim implements dlrm.EmbeddingSource.
func (s *Set) Dim() int { return s.Base.Tables[0].Dim }

// Lookup implements dlrm.EmbeddingSource: mean-pools W_base[i] + A[i]·B over
// ids. Cold ids (no LoRA row) serve the base embedding unchanged.
func (s *Set) Lookup(table int, ids []int32, dst []float64) {
	t := s.Base.Tables[table]
	t.Lookup(ids, dst)
	if len(ids) == 0 {
		return
	}
	a := s.Adapters[table]
	inv := 1 / float64(len(ids))
	for _, id := range ids {
		a.accumulate(id, inv, dst)
	}
}

// ApplyGrad implements dlrm.EmbeddingSource: the pooled-embedding gradient
// trains the LoRA factors; base weights are untouched (frozen W).
func (s *Set) ApplyGrad(table int, ids []int32, grad []float64, lr float64) {
	s.Adapters[table].train(ids, grad, lr)
}

// sizeBytes sums adapter footprints across tables.
func (s *Set) sizeBytes() int64 {
	var total int64
	for _, a := range s.Adapters {
		total += a.SizeBytes()
	}
	return total
}

// OverheadRatio returns adapter bytes / base EMT bytes — the "<2% of EMTs"
// memory-overhead metric of the paper's abstract and Fig 17.
func (s *Set) OverheadRatio() float64 {
	base := s.Base.SizeBytes()
	if base == 0 {
		return 0
	}
	return float64(s.sizeBytes()) / float64(base)
}

// ResetAdapters clears all adapters without touching the base (after the
// base was replaced by a full-parameter sync).
func (s *Set) ResetAdapters() {
	for _, a := range s.Adapters {
		a.reset()
	}
}

// EffectiveRow writes W_base[id] + A[id]·B for one id into dst.
func (s *Set) EffectiveRow(table int, id int32, dst []float64) {
	copy(dst, s.Base.Tables[table].PeekRow(id))
	s.Adapters[table].accumulate(id, 1, dst)
}

// TableState bundles one adapter's sync payload: modified A rows plus the
// shared B factor.
type TableState struct {
	Rows []RowUpdate
	B    *tensor.Matrix
	Rank int
}

// exportState snapshots all adapters' supports for synchronization.
func (s *Set) exportState() []TableState {
	out := make([]TableState, len(s.Adapters))
	for i, a := range s.Adapters {
		out[i] = TableState{Rows: a.exportSupport(), B: a.copyB(), Rank: a.Rank()}
	}
	return out
}

// ExportFull snapshots every adapter's complete state — all active rows
// (not just the modified supports) plus the shared factors — as deep
// copies. This is the catch-up payload a replica joining the fleet installs
// with Publish: unlike Snapshot it carries rows from every past sync epoch,
// so the joiner matches a veteran's accumulated state, and it does NOT
// clear the supports (the exporter keeps participating in its next sync
// normally). Owner-only, like Snapshot.
func (s *Set) ExportFull() []TableState {
	out := make([]TableState, len(s.Adapters))
	for i, a := range s.Adapters {
		out[i] = TableState{Rows: a.exportAllRows(), B: a.copyB(), Rank: a.Rank()}
	}
	return out
}

// applyState installs a synced snapshot (winner of the priority merge). Each
// adapter swaps in its new rows and B factor with one atomic store, so
// concurrent lock-free readers see either the pre- or post-sync state of a
// table, never a torn mix. A state that does not fit the Set — the wrong
// number of tables, a row id outside its base table — is refused by a panic
// before any adapter is touched: such a row would count as active, be
// re-exported, and index out of range in EffectiveRow.
func (s *Set) applyState(states []TableState) {
	if len(states) != len(s.Adapters) {
		panic(fmt.Sprintf("lora: Publish %d states for %d adapters", len(states), len(s.Adapters)))
	}
	for i, st := range states {
		rows := s.Base.Tables[i].Rows()
		for _, u := range st.Rows {
			if u.ID < 0 || int(u.ID) >= rows {
				panic(fmt.Sprintf("lora: Publish table %d: row id %d outside [0,%d)", i, u.ID, rows))
			}
		}
	}
	for i, st := range states {
		s.Adapters[i].applyState(st)
	}
}

// Snapshot exports every adapter's modified-row support plus shared factors
// and clears the supports — the copy-on-write payload for one epoch of the
// asynchronous sync pipeline. Clearing at snapshot time (rather than after
// the merge lands) means training that arrives while the merge is in flight
// feeds the NEXT epoch instead of being silently dropped. Owner-only: callers
// must hold the replica's serialization while snapshotting.
func (s *Set) Snapshot() []TableState {
	st := s.exportState()
	s.resetSupports()
	return st
}

// Publish atomically installs a merged state and stamps it with the
// publisher's epoch. The state is applied per adapter via copy-on-write
// pointer swaps, then the epoch is recorded, so lock-free readers never
// block on the merge that produced it. The epoch is the publisher's monotone
// sync generation — the SyncGroup's cumulative sync counter, which advances
// on every completed merge, manual SyncNow included. It orders
// publications; it is NOT the Cluster's SyncEvery epoch index.
func (s *Set) Publish(states []TableState, epoch int64) {
	s.applyState(states)
	s.epoch.Store(epoch + 1)
}

// Epoch returns the epoch of the last published state, or -1 before the
// first publication. Lock-free.
func (s *Set) Epoch() int64 { return s.epoch.Load() - 1 }

// resetSupports clears all adapters' support sets (end of sync cycle).
func (s *Set) resetSupports() {
	for _, a := range s.Adapters {
		a.resetSupport()
	}
}

// PayloadBytes returns the wire size of an exported state: 4 bytes per row
// id plus 8 bytes per float for A rows and B.
func PayloadBytes(states []TableState) int64 {
	var total int64
	for _, st := range states {
		for _, r := range st.Rows {
			total += 4 + int64(len(r.Row))*8
		}
		if st.B != nil {
			total += int64(len(st.B.Data)) * 8
		}
	}
	return total
}
