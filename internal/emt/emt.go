// Package emt implements the embedding tables (EMTs) at the heart of DLRM
// serving (paper §II-A): row-major storage, one/multi-hot lookup with mean
// pooling, sparse row-wise gradient updates, dirty-row tracking for the
// update-ratio analysis of Fig 3a, versioning, and partitioning across
// inference nodes.
package emt

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"liveupdate/internal/tensor"
)

// Table is one embedding table W ∈ R^{|V|×d}.
type Table struct {
	Name string
	Dim  int

	weights *tensor.Matrix
	version uint64

	// dirty is a bitset (one bit per row) of the rows modified since the last
	// ResetDirty, dirtyCount its population; they back the update-ratio
	// accounting of paper Fig 3a and delta-update extraction.
	dirty      []uint64
	dirtyCount int

	// accesses counts lookups per row for hot/cold classification (Fig 12).
	// Incremented atomically: Row/Lookup run on the serving fast path, which
	// is lock-free with respect to the owner's bookkeeping, so concurrent
	// requests on one replica may record accesses at the same time. Readers
	// (AccessCounts) are expected to run quiesced (experiments, tests).
	accesses []uint64
}

// NewTable creates a |V|×d table initialized with N(0, 1/sqrt(d)) rows, the
// usual DLRM embedding initialization scale.
func NewTable(name string, rows, dim int, rng *tensor.RNG) *Table {
	if rows <= 0 || dim <= 0 {
		panic(fmt.Sprintf("emt: invalid table %dx%d", rows, dim))
	}
	return &Table{
		Name:     name,
		Dim:      dim,
		weights:  tensor.RandomMatrix(rng, rows, dim, 1/math.Sqrt(float64(dim))),
		dirty:    newDirty(rows),
		accesses: make([]uint64, rows),
	}
}

// newDirty returns an empty dirty set for a table of the given row count.
func newDirty(rows int) []uint64 { return make([]uint64, (rows+63)/64) }

// markDirty adds row id to the dirty set.
func (t *Table) markDirty(id int32) {
	w, b := id>>6, uint64(1)<<(id&63)
	if t.dirty[w]&b == 0 {
		t.dirty[w] |= b
		t.dirtyCount++
	}
}

// Rows returns |V|.
func (t *Table) Rows() int { return t.weights.Rows }

// Version returns the monotonically increasing modification counter.
func (t *Table) Version() uint64 { return t.version }

// Row returns the embedding vector for id, aliasing internal storage, and
// records the access (atomically — Row is called from the lock-free serving
// forward). Callers must not modify the returned slice; use ApplyRowDelta or
// SetRow for writes so dirty tracking stays correct.
func (t *Table) Row(id int32) []float64 {
	atomic.AddUint64(&t.accesses[id], 1)
	return t.weights.Row(int(id))
}

// PeekRow returns the row without recording an access (for sync/export).
func (t *Table) PeekRow(id int32) []float64 { return t.weights.Row(int(id)) }

// Lookup mean-pools the embeddings of ids into dst (len Dim). A single id
// copies; multiple ids average, matching the paper's multi-hot pooling.
func (t *Table) Lookup(ids []int32, dst []float64) {
	if len(dst) != t.Dim {
		panic(fmt.Sprintf("emt: lookup dst len %d != dim %d", len(dst), t.Dim))
	}
	for i := range dst {
		dst[i] = 0
	}
	if len(ids) == 0 {
		return
	}
	inv := 1 / float64(len(ids))
	for _, id := range ids {
		tensor.Axpy(inv, t.Row(id), dst)
	}
}

// ApplyRowDelta adds delta to row id (sparse SGD step) and marks it dirty.
func (t *Table) ApplyRowDelta(id int32, delta []float64) {
	row := t.weights.Row(int(id))
	if len(delta) != len(row) {
		panic(fmt.Sprintf("emt: delta len %d != dim %d", len(delta), len(row)))
	}
	for i, d := range delta {
		row[i] += d
	}
	t.markDirty(id)
	t.version++
}

// ScatterAdd adds delta to every row in ids — the SPMM-style sparse scatter
// of a mini-batch gradient: only the touched rows are visited, each is
// marked dirty, and the version advances once for the whole batch (matching
// ApplyDeltas' batch-bump semantics) instead of once per row.
func (t *Table) ScatterAdd(ids []int32, delta []float64) {
	if len(ids) == 0 {
		return
	}
	if len(delta) != t.Dim {
		panic(fmt.Sprintf("emt: delta len %d != dim %d", len(delta), t.Dim))
	}
	for _, id := range ids {
		row := t.weights.Row(int(id))
		for i, d := range delta {
			row[i] += d
		}
		t.markDirty(id)
	}
	t.version++
}

// SetRow overwrites row id and marks it dirty.
func (t *Table) SetRow(id int32, values []float64) {
	row := t.weights.Row(int(id))
	if len(values) != len(row) {
		panic(fmt.Sprintf("emt: values len %d != dim %d", len(values), len(row)))
	}
	copy(row, values)
	t.markDirty(id)
	t.version++
}

// DirtyCount returns the number of rows modified since the last ResetDirty.
func (t *Table) DirtyCount() int { return t.dirtyCount }

// DirtyRatio returns DirtyCount / |V| — the per-window update ratio of Fig 3a.
func (t *Table) DirtyRatio() float64 { return float64(t.dirtyCount) / float64(t.Rows()) }

// DirtyIDs returns the modified row ids in ascending order.
func (t *Table) DirtyIDs() []int32 {
	out := make([]int32, 0, t.dirtyCount)
	for w, word := range t.dirty {
		for ; word != 0; word &= word - 1 {
			out = append(out, int32(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return out
}

// ResetDirty clears the dirty set in place, starting a new tracking window.
func (t *Table) ResetDirty() {
	clear(t.dirty)
	t.dirtyCount = 0
}

// AccessCounts returns per-row lookup counts (aliases internal state). Call
// it only while no request is in flight on the owning node; the counters are
// written atomically by the serving path.
func (t *Table) AccessCounts() []uint64 { return t.accesses }

// ResetAccessCounts zeroes the lookup counters.
func (t *Table) ResetAccessCounts() {
	for i := range t.accesses {
		atomic.StoreUint64(&t.accesses[i], 0)
	}
}

// SizeBytes returns the in-memory weight footprint (float64 storage).
func (t *Table) SizeBytes() int64 { return int64(t.Rows()) * int64(t.Dim) * 8 }

// Clone returns a deep copy with cleared dirty/access state, representing a
// freshly synced replica of the current weights.
func (t *Table) Clone() *Table {
	return &Table{
		Name:     t.Name,
		Dim:      t.Dim,
		weights:  t.weights.Clone(),
		version:  t.version,
		dirty:    newDirty(t.Rows()),
		accesses: make([]uint64, t.Rows()),
	}
}

// CopyWeightsFrom overwrites all weights from src (a full-parameter sync).
// Dirty state is cleared: after a full sync the replica is clean.
func (t *Table) CopyWeightsFrom(src *Table) {
	if t.Rows() != src.Rows() || t.Dim != src.Dim {
		panic(fmt.Sprintf("emt: CopyWeightsFrom shape mismatch %dx%d vs %dx%d",
			t.Rows(), t.Dim, src.Rows(), src.Dim))
	}
	copy(t.weights.Data, src.weights.Data)
	t.version = src.version
	t.ResetDirty()
}

// RowDelta holds one changed row for delta synchronization.
type RowDelta struct {
	ID     int32
	Values []float64
}

// ExportDeltas snapshots the dirty rows, in ascending id order, as full row
// values (the payload a DeltaUpdate strategy ships) without clearing the
// dirty set.
func (t *Table) ExportDeltas() []RowDelta {
	ids := t.DirtyIDs()
	out := make([]RowDelta, len(ids))
	for i, id := range ids {
		out[i] = RowDelta{ID: id, Values: append([]float64(nil), t.weights.Row(int(id))...)}
	}
	return out
}

// ApplyDeltas installs row snapshots (receiving side of a delta sync).
// Installed rows are not marked dirty: they carry remote, already-synced
// state.
func (t *Table) ApplyDeltas(deltas []RowDelta) {
	for _, d := range deltas {
		row := t.weights.Row(int(d.ID))
		copy(row, d.Values)
	}
	t.version++
}

// Group is an ordered collection of tables (one per categorical field).
type Group struct {
	Tables []*Table
}

// NewGroup builds numTables tables of rows×dim each.
func NewGroup(numTables, rows, dim int, rng *tensor.RNG) *Group {
	g := &Group{}
	for i := 0; i < numTables; i++ {
		g.Tables = append(g.Tables, NewTable(fmt.Sprintf("table%d", i), rows, dim, rng))
	}
	return g
}

// Lookup pools ids from every table into a single concatenated vector of
// length len(Tables)×dim.
func (g *Group) Lookup(sparse [][]int32, dst []float64) {
	dim := g.Tables[0].Dim
	if len(dst) != len(g.Tables)*dim {
		panic(fmt.Sprintf("emt: group lookup dst len %d != %d", len(dst), len(g.Tables)*dim))
	}
	if len(sparse) != len(g.Tables) {
		panic(fmt.Sprintf("emt: group lookup %d id lists for %d tables", len(sparse), len(g.Tables)))
	}
	for i, t := range g.Tables {
		t.Lookup(sparse[i], dst[i*dim:(i+1)*dim])
	}
}

// SizeBytes sums the weight footprint across tables.
func (g *Group) SizeBytes() int64 {
	var total int64
	for _, t := range g.Tables {
		total += t.SizeBytes()
	}
	return total
}

// DirtyRatio returns the group-wide dirty row fraction.
func (g *Group) DirtyRatio() float64 {
	dirty, total := 0, 0
	for _, t := range g.Tables {
		dirty += t.DirtyCount()
		total += t.Rows()
	}
	if total == 0 {
		return 0
	}
	return float64(dirty) / float64(total)
}

// ResetDirty clears dirty state on every table.
func (g *Group) ResetDirty() {
	for _, t := range g.Tables {
		t.ResetDirty()
	}
}

// Clone deep-copies the group.
func (g *Group) Clone() *Group {
	out := &Group{}
	for _, t := range g.Tables {
		out.Tables = append(out.Tables, t.Clone())
	}
	return out
}

// CopyWeightsFrom full-syncs every table from src.
func (g *Group) CopyWeightsFrom(src *Group) {
	if len(g.Tables) != len(src.Tables) {
		panic("emt: group CopyWeightsFrom table count mismatch")
	}
	for i, t := range g.Tables {
		t.CopyWeightsFrom(src.Tables[i])
	}
}

// Partition assigns table rows to nodes by contiguous range, the standard
// row-wise EMT sharding of the paper's inference clusters (Fig 2). It maps
// a (table, id) pair to the owning node.
type Partition struct {
	NumNodes int
	rows     int
}

// NewPartition shards tables of `rows` rows across numNodes nodes.
func NewPartition(numNodes, rows int) *Partition {
	if numNodes <= 0 || rows <= 0 {
		panic("emt: invalid partition")
	}
	return &Partition{NumNodes: numNodes, rows: rows}
}

// Owner returns the node owning row id.
func (p *Partition) Owner(id int32) int {
	per := (p.rows + p.NumNodes - 1) / p.NumNodes
	n := int(id) / per
	if n >= p.NumNodes {
		n = p.NumNodes - 1
	}
	return n
}

// Range returns the [lo, hi) row interval owned by node.
func (p *Partition) Range(node int) (lo, hi int32) {
	per := (p.rows + p.NumNodes - 1) / p.NumNodes
	lo = int32(node * per)
	hi = lo + int32(per)
	if int(hi) > p.rows {
		hi = int32(p.rows)
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}
