package emt

import (
	"math"
	"testing"
	"testing/quick"

	"liveupdate/internal/tensor"
)

func newTestTable(rows, dim int) *Table {
	return NewTable("t", rows, dim, tensor.NewRNG(1))
}

func TestNewTableShape(t *testing.T) {
	tab := newTestTable(100, 16)
	if tab.Rows() != 100 || tab.Dim != 16 {
		t.Fatalf("shape %dx%d", tab.Rows(), tab.Dim)
	}
	if tab.SizeBytes() != 100*16*8 {
		t.Fatalf("size %d", tab.SizeBytes())
	}
	if tab.Version() != 0 {
		t.Fatal("fresh table version must be 0")
	}
}

func TestRowAccessCounting(t *testing.T) {
	tab := newTestTable(10, 4)
	tab.Row(3)
	tab.Row(3)
	tab.Row(7)
	counts := tab.AccessCounts()
	if counts[3] != 2 || counts[7] != 1 || counts[0] != 0 {
		t.Fatalf("access counts %v", counts)
	}
	// PeekRow must not count.
	tab.PeekRow(3)
	if counts[3] != 2 {
		t.Fatal("PeekRow must not record an access")
	}
	tab.ResetAccessCounts()
	if counts[3] != 0 {
		t.Fatal("ResetAccessCounts failed")
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

func TestLookupMeanPooling(t *testing.T) {
	tab := newTestTable(10, 2)
	tab.SetRow(0, []float64{2, 4})
	tab.SetRow(1, []float64{4, 8})
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
	tab.ApplyRowDelta(4, []float64{0.5, -0.5})
	row := tab.PeekRow(4)
	if math.Abs(row[0]-(orig[0]+0.5)) > 1e-15 || math.Abs(row[1]-(orig[1]-0.5)) > 1e-15 {
		t.Fatal("delta not applied")
	}
	if tab.DirtyCount() != 1 {
		t.Fatalf("dirty count %d", tab.DirtyCount())
	}
	if tab.DirtyRatio() != 0.1 {
		t.Fatalf("dirty ratio %v", tab.DirtyRatio())
	}
	ids := tab.DirtyIDs()
	if len(ids) != 1 || ids[0] != 4 {
		t.Fatalf("dirty ids %v", ids)
	}
	if tab.Version() != 1 {
		t.Fatalf("version %d", tab.Version())
	}
	tab.ResetDirty()
	if tab.DirtyCount() != 0 {
		t.Fatal("ResetDirty failed")
	}
}

func TestDirtyDeduplication(t *testing.T) {
	tab := newTestTable(10, 2)
	for i := 0; i < 5; i++ {
		tab.ApplyRowDelta(2, []float64{0.1, 0.1})
	}
	if tab.DirtyCount() != 1 {
		t.Fatalf("repeated updates to same row must count once, got %d", tab.DirtyCount())
	}
}

func TestExportApplyDeltas(t *testing.T) {
	src := newTestTable(10, 3)
	dst := src.Clone()
	src.ApplyRowDelta(1, []float64{1, 1, 1})
	src.ApplyRowDelta(8, []float64{-1, 0, 1})
	deltas := src.ExportDeltas()
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
	if dst.DirtyCount() != 0 {
		t.Fatal("ApplyDeltas must not dirty the replica")
	}
	// Export must not clear dirty.
	if src.DirtyCount() != 2 {
		t.Fatal("ExportDeltas must not clear dirty state")
	}
}

func TestExportDeltasSnapshotIndependence(t *testing.T) {
	tab := newTestTable(4, 2)
	tab.ApplyRowDelta(0, []float64{1, 1})
	deltas := tab.ExportDeltas()
	tab.ApplyRowDelta(0, []float64{5, 5})
	if deltas[0].Values[0] == tab.PeekRow(0)[0] {
		t.Fatal("exported delta must be a snapshot, not an alias")
	}
}

func TestCloneAndCopyWeights(t *testing.T) {
	a := newTestTable(6, 2)
	a.ApplyRowDelta(0, []float64{1, 2})
	c := a.Clone()
	if c.DirtyCount() != 0 {
		t.Fatal("clone must start clean")
	}
	if c.Version() != a.Version() {
		t.Fatal("clone should carry the version")
	}
	a.ApplyRowDelta(1, []float64{3, 3})
	if c.PeekRow(1)[0] == a.PeekRow(1)[0] {
		t.Fatal("clone must not share storage")
	}
	c.CopyWeightsFrom(a)
	for i := 0; i < 6; i++ {
		ra, rc := a.PeekRow(int32(i)), c.PeekRow(int32(i))
		for j := range ra {
			if ra[j] != rc[j] {
				t.Fatal("CopyWeightsFrom mismatch")
			}
		}
	}
	if c.DirtyCount() != 0 {
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
	g.Tables[0].ApplyRowDelta(0, make([]float64, 4))
	g.Tables[1].ApplyRowDelta(1, make([]float64, 4))
	g.Tables[1].ApplyRowDelta(2, make([]float64, 4))
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
	g.Tables[0].ApplyRowDelta(0, []float64{9, 9})
	if c.Tables[0].PeekRow(0)[0] == g.Tables[0].PeekRow(0)[0] {
		t.Fatal("group clone shares storage")
	}
	c.CopyWeightsFrom(g)
	if c.Tables[0].PeekRow(0)[0] != g.Tables[0].PeekRow(0)[0] {
		t.Fatal("group CopyWeightsFrom failed")
	}
}

func TestPartitionOwnerAndRange(t *testing.T) {
	p := NewPartition(4, 100)
	if p.Owner(0) != 0 || p.Owner(99) != 3 {
		t.Fatalf("owners %d %d", p.Owner(0), p.Owner(99))
	}
	// Every row owned by exactly the node whose range contains it.
	for id := int32(0); id < 100; id++ {
		n := p.Owner(id)
		lo, hi := p.Range(n)
		if id < lo || id >= hi {
			t.Fatalf("row %d not in range [%d,%d) of node %d", id, lo, hi, n)
		}
	}
	// Ranges cover all rows exactly once.
	covered := 0
	for n := 0; n < 4; n++ {
		lo, hi := p.Range(n)
		covered += int(hi - lo)
	}
	if covered != 100 {
		t.Fatalf("ranges cover %d rows, want 100", covered)
	}
}

func TestPartitionUneven(t *testing.T) {
	p := NewPartition(3, 10) // per = 4: ranges [0,4) [4,8) [8,10)
	lo, hi := p.Range(2)
	if lo != 8 || hi != 10 {
		t.Fatalf("last range [%d,%d)", lo, hi)
	}
	if p.Owner(9) != 2 {
		t.Fatalf("owner(9) = %d", p.Owner(9))
	}
}

// Property: after arbitrary update sequences through every writer, a row
// updated twice counts once, DirtyIDs and ExportDeltas list exactly the
// updated ids in ascending order, and DirtyRatio is within [0,1].
func TestPropertyDirtyTracking(t *testing.T) {
	const rows = 130 // three bitset words, the last one partial
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		tab := NewTable("p", rows, 4, rng)
		distinct := make(map[int32]bool)
		n := rng.Intn(100)
		for i := 0; i < n; i++ {
			id := int32(rng.Intn(rows))
			distinct[id] = true
			switch i % 3 {
			case 0:
				tab.ApplyRowDelta(id, []float64{0.1, 0, 0, 0})
			case 1:
				tab.ScatterAdd([]int32{id, id}, []float64{0, 0.1, 0, 0})
			default:
				tab.SetRow(id, []float64{1, 2, 3, 4})
			}
		}
		ids, deltas := tab.DirtyIDs(), tab.ExportDeltas()
		if len(ids) != len(distinct) || len(deltas) != len(ids) {
			return false
		}
		for i, id := range ids {
			if !distinct[id] || deltas[i].ID != id || (i > 0 && ids[i-1] >= id) {
				return false
			}
		}
		return tab.DirtyCount() == len(distinct) &&
			tab.DirtyRatio() >= 0 && tab.DirtyRatio() <= 1
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
		dst.Tables[0].ApplyRowDelta(129, []float64{1, 0, 0, 0})
		dst.CopyWeightsFrom(src)
		dst.ResetDirty()
	})
	if allocs != 0 {
		t.Fatalf("CopyWeightsFrom + ResetDirty allocate %v times, want 0", allocs)
	}
	if dst.DirtyRatio() != 0 || len(dst.Tables[0].DirtyIDs()) != 0 {
		t.Fatal("full sync must leave the replica clean")
	}
}

// Property: a delta round trip (export → apply on clone) makes the replica
// bit-identical on every dirty row.
func TestPropertyDeltaRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		src := NewTable("p", 30, 3, rng)
		dst := src.Clone()
		for i := 0; i < 20; i++ {
			id := int32(rng.Intn(30))
			src.ApplyRowDelta(id, []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()})
		}
		dst.ApplyDeltas(src.ExportDeltas())
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
