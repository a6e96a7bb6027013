package emt

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"

	"liveupdate/internal/tensor"
)

// dirtyDeltas snapshots tab's dirty rows in ascending id order, as full row
// values: the payload a delta sync ships.
func dirtyDeltas(tab *Table) []RowDelta {
	var out []RowDelta
	for w, word := range tab.dirty {
		for ; word != 0; word &= word - 1 {
			id := int32(w<<6 + bits.TrailingZeros64(word))
			out = append(out, RowDelta{ID: id, Values: append([]float64(nil), tab.PeekRow(id)...)})
		}
	}
	return out
}

func newTestTable(rows, dim int) *Table {
	return newTable("t", rows, dim, tensor.NewRNG(1))
}

func TestNewTableShape(t *testing.T) {
	tab := newTestTable(100, 16)
	if tab.Rows() != 100 || tab.Dim != 16 {
		t.Fatalf("shape %dx%d", tab.Rows(), tab.Dim)
	}
	if tab.sizeBytes() != 100*16*8 {
		t.Fatalf("size %d", tab.sizeBytes())
	}
	if tab.version != 0 {
		t.Fatal("fresh table version must be 0")
	}
}

func TestLookupSingleHot(t *testing.T) {
	tab := newTestTable(10, 4)
	dst := make([]float64, 4)
	tab.Lookup([]int32{5}, dst)
	row := tab.PeekRow(5)
	for i := range dst {
		if dst[i] != row[i] {
			t.Fatal("single-hot lookup must copy the row")
		}
	}
}

// TestLookupSingleIDMatchesAxpy: the one-id copy gives the bits the pooled
// path's Axpy into a zeroed dst gives, element by element, on rows holding
// −0, ±Inf, NaN, subnormals and normals: −0 reads as +0, the rest pass.
func TestLookupSingleIDMatchesAxpy(t *testing.T) {
	tab := newTestTable(4, 8)
	copy(tab.PeekRow(1), []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Copysign(math.NaN(), -1), -math.SmallestNonzeroFloat64, -2.5})
	copy(tab.PeekRow(2), []float64{math.Copysign(0, -1), math.Copysign(0, -1), 1, -1,
		math.MaxFloat64, -math.MaxFloat64, 0x1p-1060, math.NaN()})
	for id := int32(0); id < int32(tab.Rows()); id++ {
		got := []float64{7, 7, 7, 7, 7, 7, 7, 7}
		tab.Lookup([]int32{id}, got)
		want := make([]float64, tab.Dim)
		tensor.Axpy(1, tab.PeekRow(id), want)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("row %d elem %d (%v): copy %v (%#x), Axpy into zeros %v (%#x)", id, i,
					tab.PeekRow(id)[i], got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
		if id == 1 && math.Float64bits(got[0]) != 0 {
			t.Fatalf("a −0 element must read as +0, got %#x", math.Float64bits(got[0]))
		}
	}
}

func TestLookupMeanPooling(t *testing.T) {
	tab := newTestTable(10, 2)
	copy(tab.PeekRow(0), []float64{2, 4})
	copy(tab.PeekRow(1), []float64{4, 8})
	dst := make([]float64, 2)
	tab.Lookup([]int32{0, 1}, dst)
	if dst[0] != 3 || dst[1] != 6 {
		t.Fatalf("pooled = %v, want [3 6]", dst)
	}
}

func TestLookupEmptyIDs(t *testing.T) {
	tab := newTestTable(10, 2)
	dst := []float64{9, 9}
	tab.Lookup(nil, dst)
	if dst[0] != 0 || dst[1] != 0 {
		t.Fatal("empty lookup must zero dst")
	}
}

func TestApplyRowDeltaAndDirty(t *testing.T) {
	tab := newTestTable(10, 2)
	orig := append([]float64(nil), tab.PeekRow(4)...)
	tab.ScatterAdd([]int32{4}, []float64{0.5, -0.5})
	row := tab.PeekRow(4)
	if math.Abs(row[0]-(orig[0]+0.5)) > 1e-15 || math.Abs(row[1]-(orig[1]-0.5)) > 1e-15 {
		t.Fatal("delta not applied")
	}
	if tab.dirtyCount != 1 {
		t.Fatalf("dirty count %d", tab.dirtyCount)
	}
	if tab.dirty[0] != 1<<4 {
		t.Fatalf("dirty bits %b, want row 4 only", tab.dirty[0])
	}
	if tab.version != 1 {
		t.Fatalf("version %d", tab.version)
	}
	tab.resetDirty()
	if tab.dirtyCount != 0 {
		t.Fatal("ResetDirty failed")
	}
}

func TestDirtyDeduplication(t *testing.T) {
	tab := newTestTable(10, 2)
	for i := 0; i < 5; i++ {
		tab.ScatterAdd([]int32{2}, []float64{0.1, 0.1})
	}
	if tab.dirtyCount != 1 {
		t.Fatalf("repeated updates to same row must count once, got %d", tab.dirtyCount)
	}
}

func TestExportApplyDeltas(t *testing.T) {
	src := newTestTable(10, 3)
	dst := src.clone()
	src.ScatterAdd([]int32{1}, []float64{1, 1, 1})
	src.ScatterAdd([]int32{8}, []float64{-1, 0, 1})
	deltas := dirtyDeltas(src)
	if len(deltas) != 2 {
		t.Fatalf("deltas %d", len(deltas))
	}
	dst.ApplyDeltas(deltas)
	for _, id := range []int32{1, 8} {
		a, b := src.PeekRow(id), dst.PeekRow(id)
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("delta sync mismatch")
			}
		}
	}
	// Receiving a delta must not mark the replica dirty.
	if dst.dirtyCount != 0 {
		t.Fatal("ApplyDeltas must not dirty the replica")
	}
}

// An installed delta is a copy: the sender may reuse its buffer after
// ApplyDeltas without touching the receiving table.
func TestExportDeltasSnapshotIndependence(t *testing.T) {
	src, dst := newTestTable(4, 2), newTestTable(4, 2)
	src.ScatterAdd([]int32{0}, []float64{1, 1})
	deltas := dirtyDeltas(src)
	dst.ApplyDeltas(deltas)
	want := dst.PeekRow(0)[0]
	deltas[0].Values[0] += 5
	if dst.PeekRow(0)[0] != want {
		t.Fatal("an installed delta must be copied, not aliased")
	}
}

func TestCloneAndCopyWeights(t *testing.T) {
	a := newTestTable(6, 2)
	a.ScatterAdd([]int32{0}, []float64{1, 2})
	c := a.clone()
	if c.dirtyCount != 0 {
		t.Fatal("clone must start clean")
	}
	if c.version != a.version {
		t.Fatal("clone should carry the version")
	}
	a.ScatterAdd([]int32{1}, []float64{3, 3})
	if c.PeekRow(1)[0] == a.PeekRow(1)[0] {
		t.Fatal("clone must not share storage")
	}
	c.copyWeightsFrom(a)
	for i := 0; i < 6; i++ {
		ra, rc := a.PeekRow(int32(i)), c.PeekRow(int32(i))
		for j := range ra {
			if ra[j] != rc[j] {
				t.Fatal("CopyWeightsFrom mismatch")
			}
		}
	}
	if c.dirtyCount != 0 {
		t.Fatal("full sync must leave replica clean")
	}
}

func TestGroupLookupConcat(t *testing.T) {
	g := NewGroup(3, 10, 4, tensor.NewRNG(2))
	dst := make([]float64, 12)
	sparse := [][]int32{{1}, {2}, {3}}
	g.Lookup(sparse, dst)
	for ti := 0; ti < 3; ti++ {
		row := g.Tables[ti].PeekRow(sparse[ti][0])
		for j := 0; j < 4; j++ {
			if dst[ti*4+j] != row[j] {
				t.Fatalf("concat mismatch at table %d", ti)
			}
		}
	}
}

func TestGroupDirtyRatioAndSize(t *testing.T) {
	g := NewGroup(2, 10, 4, tensor.NewRNG(3))
	if g.SizeBytes() != 2*10*4*8 {
		t.Fatalf("group size %d", g.SizeBytes())
	}
	g.Tables[0].ScatterAdd([]int32{0}, make([]float64, 4))
	g.Tables[1].ScatterAdd([]int32{1}, make([]float64, 4))
	g.Tables[1].ScatterAdd([]int32{2}, make([]float64, 4))
	if got := g.DirtyRatio(); math.Abs(got-0.15) > 1e-12 {
		t.Fatalf("group dirty ratio %v, want 0.15", got)
	}
	g.ResetDirty()
	if g.DirtyRatio() != 0 {
		t.Fatal("group ResetDirty failed")
	}
}

func TestGroupCloneCopy(t *testing.T) {
	g := NewGroup(2, 5, 2, tensor.NewRNG(4))
	c := g.Clone()
	g.Tables[0].ScatterAdd([]int32{0}, []float64{9, 9})
	if c.Tables[0].PeekRow(0)[0] == g.Tables[0].PeekRow(0)[0] {
		t.Fatal("group clone shares storage")
	}
	c.CopyWeightsFrom(g)
	if c.Tables[0].PeekRow(0)[0] != g.Tables[0].PeekRow(0)[0] {
		t.Fatal("group CopyWeightsFrom failed")
	}
}

// Property: after arbitrary update sequences, a row updated twice counts
// once and the dirty set holds exactly the updated ids.
func TestPropertyDirtyTracking(t *testing.T) {
	const rows = 130 // three bitset words, the last one partial
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		tab := newTable("p", rows, 4, rng)
		distinct := make(map[int32]bool)
		n := rng.Intn(100)
		for i := 0; i < n; i++ {
			id := int32(rng.Intn(rows))
			distinct[id] = true
			if i%2 == 0 {
				tab.ScatterAdd([]int32{id}, []float64{0.1, 0, 0, 0})
			} else {
				tab.ScatterAdd([]int32{id, id}, []float64{0, 0.1, 0, 0})
			}
		}
		deltas := dirtyDeltas(tab)
		if len(deltas) != len(distinct) {
			return false
		}
		for i, d := range deltas {
			if !distinct[d.ID] || (i > 0 && deltas[i-1].ID >= d.ID) {
				return false
			}
		}
		return tab.dirtyCount == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// A full sync into a dirty replica (the harness's snapshot ring does one per
// table per window) clears the dirty set in place.
func TestCopyWeightsFromAllocatesNothing(t *testing.T) {
	src := NewGroup(2, 130, 4, tensor.NewRNG(5))
	dst := src.Clone()
	allocs := testing.AllocsPerRun(10, func() {
		dst.Tables[0].ScatterAdd([]int32{129}, []float64{1, 0, 0, 0})
		dst.CopyWeightsFrom(src)
		dst.ResetDirty()
	})
	if allocs != 0 {
		t.Fatalf("CopyWeightsFrom + ResetDirty allocate %v times, want 0", allocs)
	}
	if dst.DirtyRatio() != 0 || dst.Tables[0].dirtyCount != 0 {
		t.Fatal("full sync must leave the replica clean")
	}
}

// Property: a delta round trip (export → apply on clone) makes the replica
// bit-identical on every dirty row.
func TestPropertyDeltaRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		src := newTable("p", 30, 3, rng)
		dst := src.clone()
		for i := 0; i < 20; i++ {
			id := int32(rng.Intn(30))
			src.ScatterAdd([]int32{id}, []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()})
		}
		dst.ApplyDeltas(dirtyDeltas(src))
		for id := int32(0); id < 30; id++ {
			a, b := src.PeekRow(id), dst.PeekRow(id)
			for j := range a {
				if a[j] != b[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
