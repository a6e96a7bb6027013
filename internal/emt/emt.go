// Package emt implements the embedding tables (EMTs) at the heart of DLRM
// serving (paper §II-A): row-major storage, one/multi-hot lookup with mean
// pooling, sparse row-wise gradient updates, dirty-row tracking for the
// update-ratio analysis of Fig 3a, versioning, and the binary checkpoints
// that seed fleet replicas and carry full-parameter syncs (checkpoint.go).
package emt

import (
	"fmt"
	"math"

	"liveupdate/internal/tensor"
)

// Table is one embedding table W ∈ R^{|V|×d}.
type Table struct {
	Name string
	Dim  int

	weights *tensor.Matrix
	version uint64

	// dirty is a bitset (one bit per row) of the rows modified since the last
	// resetDirty, dirtyCount its population; they back the update-ratio
	// accounting of paper Fig 3a.
	dirty      []uint64
	dirtyCount int
}

// newTable creates a |V|×d table initialized with N(0, 1/sqrt(d)) rows, the
// usual DLRM embedding initialization scale.
func newTable(name string, rows, dim int, rng *tensor.RNG) *Table {
	if rows <= 0 || dim <= 0 {
		panic(fmt.Sprintf("emt: invalid table %dx%d", rows, dim))
	}
	return &Table{
		Name:    name,
		Dim:     dim,
		weights: tensor.RandomMatrix(rng, rows, dim, 1/math.Sqrt(float64(dim))),
		dirty:   newDirty(rows),
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

// PeekRow returns the embedding vector for id, aliasing internal storage.
// Callers must not modify the returned slice; writes go through ScatterAdd
// or ApplyDeltas.
func (t *Table) PeekRow(id int32) []float64 { return t.weights.Row(int(id)) }

// Lookup mean-pools the embeddings of ids into dst (len Dim). A single id
// copies; multiple ids average, matching the paper's multi-hot pooling. The
// copy writes 0 + v, the bits the pooled path's +0 start gives (a −0
// element reads as +0).
func (t *Table) Lookup(ids []int32, dst []float64) {
	if len(dst) != t.Dim {
		panic(fmt.Sprintf("emt: lookup dst len %d != dim %d", len(dst), t.Dim))
	}
	if len(ids) == 1 {
		for i, v := range t.PeekRow(ids[0]) {
			dst[i] = 0 + v
		}
		return
	}
	clear(dst)
	if len(ids) == 0 {
		return
	}
	inv := 1 / float64(len(ids))
	for _, id := range ids {
		tensor.Axpy(inv, t.PeekRow(id), dst)
	}
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

// resetDirty clears the dirty set in place, starting a new tracking window.
func (t *Table) resetDirty() {
	clear(t.dirty)
	t.dirtyCount = 0
}

// sizeBytes returns the in-memory weight footprint (float64 storage).
func (t *Table) sizeBytes() int64 { return int64(t.Rows()) * int64(t.Dim) * 8 }

// clone returns a deep copy with a cleared dirty set, representing a
// freshly synced replica of the current weights.
func (t *Table) clone() *Table {
	return &Table{
		Name:    t.Name,
		Dim:     t.Dim,
		weights: t.weights.Clone(),
		version: t.version,
		dirty:   newDirty(t.Rows()),
	}
}

// copyWeightsFrom overwrites all weights from src (a full-parameter sync).
// Dirty state is cleared: after a full sync the replica is clean.
func (t *Table) copyWeightsFrom(src *Table) {
	if t.Rows() != src.Rows() || t.Dim != src.Dim {
		panic(fmt.Sprintf("emt: CopyWeightsFrom shape mismatch %dx%d vs %dx%d",
			t.Rows(), t.Dim, src.Rows(), src.Dim))
	}
	copy(t.weights.Data, src.weights.Data)
	t.version = src.version
	t.resetDirty()
}

// RowDelta holds one changed row for delta synchronization.
type RowDelta struct {
	ID     int32
	Values []float64
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
		g.Tables = append(g.Tables, newTable(fmt.Sprintf("table%d", i), rows, dim, rng))
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
		total += t.sizeBytes()
	}
	return total
}

// DirtyRatio returns the group-wide dirty row fraction.
func (g *Group) DirtyRatio() float64 {
	dirty, total := 0, 0
	for _, t := range g.Tables {
		dirty += t.dirtyCount
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
		t.resetDirty()
	}
}

// Clone deep-copies the group.
func (g *Group) Clone() *Group {
	out := &Group{}
	for _, t := range g.Tables {
		out.Tables = append(out.Tables, t.clone())
	}
	return out
}

// CopyWeightsFrom full-syncs every table from src.
func (g *Group) CopyWeightsFrom(src *Group) {
	if len(g.Tables) != len(src.Tables) {
		panic("emt: group CopyWeightsFrom table count mismatch")
	}
	for i, t := range g.Tables {
		t.copyWeightsFrom(src.Tables[i])
	}
}
