package lora

import (
	"math/bits"
	"slices"
)

// cell is one slot of an idIndex: key is id+1, so the zero cell is empty and
// a freshly made or cleared index needs no initialization pass.
type cell struct {
	key uint32
	val int32
}

// idIndex is an open-addressed id → int32 table: power-of-two capacity, a
// multiplicative hash, linear probing, load factor at most one half. It has
// no delete — and so no tombstones: its users drop entries only in bulk, by
// reset and re-insert. Ids must be non-negative (id -1 would alias the empty
// cell; find reports it absent, insert rejects it).
type idIndex struct {
	cells []cell
	shift uint8 // 32 - log2(len(cells)): the hash keeps the product's top bits
	n     int   // occupied cells
}

const (
	hashMul       = 0x9E3779B1 // 2^32 / golden ratio
	minIndexCells = 8
)

// find returns id's value, or -1 when id is absent.
func (ix *idIndex) find(id int32) int32 {
	if len(ix.cells) == 0 {
		return -1
	}
	key := uint32(id) + 1
	mask := uint32(len(ix.cells) - 1)
	for i := (key * hashMul) >> ix.shift; ; i = (i + 1) & mask {
		c := ix.cells[i]
		if c.key == 0 {
			return -1
		}
		if c.key == key {
			return c.val
		}
	}
}

// insert adds id → val; id must be absent.
func (ix *idIndex) insert(id, val int32) {
	if id < 0 {
		panic("lora: negative row id")
	}
	ix.reserve(ix.n + 1)
	ix.place(uint32(id)+1, val)
	ix.n++
}

// place writes key into the first free cell of its probe sequence.
func (ix *idIndex) place(key uint32, val int32) {
	mask := uint32(len(ix.cells) - 1)
	i := (key * hashMul) >> ix.shift
	for ix.cells[i].key != 0 {
		i = (i + 1) & mask
	}
	ix.cells[i] = cell{key: key, val: val}
}

// reserve makes room for n entries at load ≤ 1/2, and reports whether that
// took a new, rehashed cell array (the old one is left untouched).
func (ix *idIndex) reserve(n int) bool {
	if 2*n <= len(ix.cells) {
		return false
	}
	size := max(minIndexCells, len(ix.cells))
	for size < 2*n {
		size *= 2
	}
	old := ix.cells
	ix.cells = make([]cell, size)
	ix.shift = uint8(32 - bits.TrailingZeros(uint(size)))
	for _, c := range old {
		if c.key != 0 {
			ix.place(c.key, c.val)
		}
	}
	return true
}

// reset empties the index, keeping its capacity.
func (ix *idIndex) reset() {
	clear(ix.cells)
	ix.n = 0
}

// slotMeta is a resident row's id plus the owner's per-row bookkeeping.
type slotMeta struct {
	id    int32 // -1 marks a slot evicted by adapt, until compact drops it
	freq  int32 // updates in the current adaptation window
	dirty bool  // updated since the last ResetSupport (Alg. 3's support)
}

// rowStore holds one adapter state's sparse A factor: the row of the id in
// slot s is a[s*rank:(s+1)*rank], meta[s] is its id and bookkeeping, and the
// embedded index maps id → s. Slots are dense — a new row takes slot
// len(meta) — and rows leave only through compact.
type rowStore struct {
	idIndex
	rank  int
	meta  []slotMeta
	a     []float64 // len(meta)·rank coefficients in one pointer-free slab
	dirty int       // slots with meta.dirty set
}

func newRowStore(rank int) *rowStore { return &rowStore{rank: rank} }

func (rs *rowStore) row(slot int32) []float64 {
	return rs.a[int(slot)*rs.rank : (int(slot)+1)*rs.rank]
}

// add gives id (which must be absent) the next slot and returns it; the
// slot's coefficients are whatever the slab held — the caller writes all of
// them.
func (rs *rowStore) add(id int32) int32 {
	slot := int32(len(rs.meta))
	rs.insert(id, slot)
	rs.meta = append(rs.meta, slotMeta{id: id})
	rs.a = slices.Grow(rs.a, rs.rank)[:len(rs.a)+rs.rank]
	return slot
}

// markDirty puts slot in the support set.
func (rs *rowStore) markDirty(slot int32) {
	if m := &rs.meta[slot]; !m.dirty {
		m.dirty = true
		rs.dirty++
	}
}

// clone returns an independent copy at the given rank (rows are truncated or
// zero-padded) with room for extra more rows: three copies when the rank is
// unchanged, whatever the row count.
func (rs *rowStore) clone(rank, extra int) *rowStore {
	n := len(rs.meta)
	c := &rowStore{
		idIndex: rs.idIndex, // aliases rs.cells until the next statement
		rank:    rank,
		meta:    append(make([]slotMeta, 0, n+extra), rs.meta...),
		a:       make([]float64, n*rank, (n+extra)*rank),
		dirty:   rs.dirty,
	}
	if !c.reserve(n + extra) {
		c.cells = slices.Clone(rs.cells)
	}
	if rank == rs.rank {
		copy(c.a, rs.a)
	} else {
		for s := int32(0); int(s) < n; s++ {
			copy(c.row(s), rs.row(s)) // copies min(rank) coefficients
		}
	}
	return c
}

// compact drops the slots whose id was set to -1, keeping the others in
// order, and rebuilds the index over the survivors.
func (rs *rowStore) compact() {
	n := int32(0)
	rs.reset()
	rs.dirty = 0
	for s := range rs.meta {
		m := rs.meta[s]
		if m.id < 0 {
			continue
		}
		if int(n) != s {
			copy(rs.row(n), rs.row(int32(s)))
		}
		rs.meta[n] = m
		rs.insert(m.id, n)
		if m.dirty {
			rs.dirty++
		}
		n++
	}
	rs.meta = rs.meta[:n]
	rs.a = rs.a[:int(n)*rs.rank]
}

// slotsByID returns every slot, ordered by ascending id.
func (rs *rowStore) slotsByID() []int32 {
	slots := make([]int32, len(rs.meta))
	for s := range slots {
		slots[s] = int32(s)
	}
	slices.SortFunc(slots, func(x, y int32) int { return int(rs.meta[x].id) - int(rs.meta[y].id) })
	return slots
}

// export deep-copies rows (every row, or only the dirty ones) in id order,
// all backed by one array: each Row is a full-capacity-limited subslice, so
// appending to one cannot reach its neighbour.
func (rs *rowStore) export(dirtyOnly bool) []RowUpdate {
	n := len(rs.meta)
	if dirtyOnly {
		n = rs.dirty
	}
	out := make([]RowUpdate, 0, n)
	for s, m := range rs.meta {
		if m.dirty || !dirtyOnly {
			out = append(out, RowUpdate{ID: m.id, Row: rs.row(int32(s))})
		}
	}
	slices.SortFunc(out, func(x, y RowUpdate) int { return int(x.ID) - int(y.ID) })
	buf := make([]float64, len(out)*rs.rank)
	for i := range out {
		row := buf[i*rs.rank : (i+1)*rs.rank : (i+1)*rs.rank]
		copy(row, out[i].Row)
		out[i].Row = row
	}
	return out
}
