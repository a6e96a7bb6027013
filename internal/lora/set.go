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
// For synchronization the Set carries epoch-versioned state: Snapshot copies
// the modified rows out for an in-flight merge, and Publish installs a merged
// state in place in every adapter and stamps the epoch. Readers (Lookup,
// EffectiveRow) may run beside each other and beside Snapshot, but not beside
// Publish or training, which write what they read (see the package comment
// on Adapter); the merge itself runs on the copies, outside any of this.
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
		a, err := newAdapter(c)
		if err != nil {
			return nil, fmt.Errorf("lora: table %s: %w", t.Name, err)
		}
		s.Adapters = append(s.Adapters, a)
	}
	return s, nil
}

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

// export deep-copies every adapter's rows — the modified support when
// dirtyOnly, else every active row — in id order, plus its B. All tables'
// RowUpdates, all their coefficients with the B data, and the B headers are
// carved from one slab each: four allocations per call, whatever the table
// and row counts. Each carved slice is capacity-limited, so appending to one
// cannot reach its neighbour.
func (s *Set) export(dirtyOnly bool) []TableState {
	rows, floats := 0, 0
	for _, a := range s.Adapters {
		st := a.cur.Load()
		n := st.rows.exportCount(dirtyOnly)
		rows += n
		floats += n*st.rows.rank + len(st.b.Data)
	}
	out := make([]TableState, len(s.Adapters))
	bs := make([]tensor.Matrix, len(s.Adapters))
	ups, buf := make([]RowUpdate, rows), make([]float64, floats)
	for i, a := range s.Adapters {
		st := a.cur.Load()
		rs, b := st.rows, &bs[i]
		n := rs.exportCount(dirtyOnly)
		out[i] = TableState{Rows: rs.exportInto(dirtyOnly, ups[:n:n], buf), B: b, Rank: rs.rank}
		ups, buf = ups[n:], buf[n*rs.rank:]
		*b = tensor.Matrix{Rows: st.b.Rows, Cols: st.b.Cols, Data: buf[:len(st.b.Data):len(st.b.Data)]}
		buf = buf[copy(b.Data, st.b.Data):]
	}
	return out
}

// ExportFull snapshots every adapter's complete state — all active rows
// (not just the modified supports) plus the shared factors — as deep
// copies. This is the catch-up payload a replica joining the fleet installs
// with Publish: unlike Snapshot it carries rows from every past sync epoch,
// so the joiner matches a veteran's accumulated state, and it does NOT
// clear the supports (the exporter keeps participating in its next sync
// normally). An exporter, like Snapshot.
func (s *Set) ExportFull() []TableState { return s.export(false) }

// applyState installs a synced snapshot (winner of the priority merge) in
// place, adapter by adapter; the caller excludes readers. A state that does
// not fit the Set — the wrong number of tables, a row id outside its base
// table, a B without the table's dim columns or with other than Rows·Cols
// values — is refused by a panic before any adapter is touched: such a row
// would count as active, be re-exported, and index out of range in
// EffectiveRow, and such a B would be copied misaligned.
func (s *Set) applyState(states []TableState) {
	if len(states) != len(s.Adapters) {
		panic(fmt.Sprintf("lora: Publish %d states for %d adapters", len(states), len(s.Adapters)))
	}
	for i, st := range states {
		t := s.Base.Tables[i]
		rows := t.Rows()
		for _, u := range st.Rows {
			if u.ID < 0 || int(u.ID) >= rows {
				panic(fmt.Sprintf("lora: Publish table %d: row id %d outside [0,%d)", i, u.ID, rows))
			}
		}
		if b := st.B; b != nil && (b.Cols != t.Dim || len(b.Data) != b.Rows*b.Cols) {
			panic(fmt.Sprintf("lora: Publish table %d: B is %d×%d with %d values, want %d columns", i, b.Rows, b.Cols, len(b.Data), t.Dim))
		}
	}
	for i, st := range states {
		s.Adapters[i].applyState(st)
	}
}

// Snapshot exports every adapter's modified-row support plus shared factors
// and clears the supports — the payload for one epoch of the asynchronous
// sync pipeline, a deep copy the merge can read while the adapters move on.
// Clearing at snapshot time (rather than after the merge lands) means
// training that arrives while the merge is in flight feeds the NEXT epoch
// instead of being silently dropped. An exporter: callers serialize it with
// the writers, but readers may run beside it.
func (s *Set) Snapshot() []TableState {
	st := s.export(true)
	s.resetSupports()
	return st
}

// Publish installs a merged state in place and stamps it with the
// publisher's epoch. It is a writer: the caller keeps readers out for the
// O(rows) install (core.System holds paramMu for write), never for the merge
// that produced the state. The epoch is the publisher's monotone
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
