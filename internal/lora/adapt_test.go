package lora

import (
	"math"
	"testing"

	"liveupdate/internal/tensor"
)

// trainRichGradients feeds n full-rank gradients over a rotating id set.
func trainRichGradients(a *Adapter, seed uint64, n int) {
	rng := tensor.NewRNG(seed)
	g := make([]float64, a.cfg.Dim)
	for i := 0; i < n; i++ {
		for j := range g {
			g[j] = rng.NormFloat64()
		}
		a.Train([]int32{int32(i % 30), int32((7 * i) % 30)}, g, 0.01)
	}
}

// Regression: Resize's grow path used to draw the new A coordinates while
// ranging over the row map, so two identical runs produced different factors.
func TestResizeGrowIsDeterministic(t *testing.T) {
	build := func() *Adapter {
		cfg := testConfig()
		cfg.InitialRank = 1
		cfg.Alpha = 0.95
		cfg.AdaptInterval = 40
		a := MustNewAdapter(cfg)
		trainRichGradients(a, 5, 400)
		return a
	}
	a, b := build(), build()
	if a.Rank() <= 1 {
		t.Fatalf("fixture never grew its rank (rank %d)", a.Rank())
	}
	if a.Rank() != b.Rank() || a.ActiveCount() != b.ActiveCount() {
		t.Fatalf("twin adapters diverged: rank %d vs %d, rows %d vs %d", a.Rank(), b.Rank(), a.ActiveCount(), b.ActiveCount())
	}
	ra, rb := a.ExportAllRows(), b.ExportAllRows()
	for i := range ra {
		if ra[i].ID != rb[i].ID {
			t.Fatalf("row %d: id %d vs %d", i, ra[i].ID, rb[i].ID)
		}
		for k := range ra[i].Row {
			if math.Float64bits(ra[i].Row[k]) != math.Float64bits(rb[i].Row[k]) {
				t.Fatalf("id %d coordinate %d: %v vs %v — factors depend on map order", ra[i].ID, k, ra[i].Row[k], rb[i].Row[k])
			}
		}
	}
	for i, v := range a.B().Data {
		if math.Float64bits(v) != math.Float64bits(b.B().Data[i]) {
			t.Fatalf("B[%d]: %v vs %v", i, v, b.B().Data[i])
		}
	}
}

// An adaptation pass that neither changes the rank nor evicts a row runs on
// adapter-owned scratch alone.
func TestAdaptSteadyStateAllocs(t *testing.T) {
	cfg := testConfig()
	cfg.InitialRank = 8 // full-rank gradients at MaxRank: every pass re-decides 8
	cfg.Alpha = 1
	cfg.AdaptInterval = 1 << 30 // adapt() is called by hand below
	cfg.PruneThresh = 0         // an idle window evicts nobody
	a := MustNewAdapter(cfg)
	trainRichGradients(a, 9, 300)
	a.adapt() // sizes the scratch
	rank, rows, passes := a.Rank(), a.ActiveCount(), a.Adaptations()
	if n := testing.AllocsPerRun(20, a.adapt); n != 0 {
		t.Fatalf("steady-state adapt() allocates %v times, want 0", n)
	}
	if a.Rank() != rank || a.ActiveCount() != rows || a.Adaptations() <= passes {
		t.Fatalf("fixture moved: rank %d→%d rows %d→%d passes %d→%d",
			rank, a.Rank(), rows, a.ActiveCount(), passes, a.Adaptations())
	}
}

// The prune step keeps the CMax most frequently updated rows (ties to the
// lower id) when a sync has pushed the table past capacity.
func TestPruneClampsToCapacityByFrequency(t *testing.T) {
	cfg := testConfig()
	cfg.AdaptInterval = 1 << 30
	cfg.CMax = 3
	cfg.DisableRankAdapt = true
	a := MustNewAdapter(cfg)
	var foreign []RowUpdate
	for id := int32(0); id < 6; id++ {
		foreign = append(foreign, RowUpdate{ID: id, Row: make([]float64, cfg.InitialRank)})
	}
	a.ApplyRows(foreign) // six rows in a table of capacity three
	g := make([]float64, cfg.Dim)
	g[0] = 1
	for id, times := range map[int32]int{0: 1, 1: 3, 2: 2, 3: 2, 4: 5} { // 5 never trained
		for i := 0; i < times; i++ {
			a.Train([]int32{id}, g, 0.01)
		}
	}
	a.adapt()
	for id, want := range map[int32]bool{0: false, 1: true, 2: true, 3: false, 4: true, 5: false} {
		if a.Has(id) != want {
			t.Fatalf("id %d resident = %v, want %v", id, a.Has(id), want)
		}
	}
	if a.PrunedTotal() != 3 {
		t.Fatalf("pruned %d rows, want 3", a.PrunedTotal())
	}
}
