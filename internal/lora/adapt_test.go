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
		a.train([]int32{int32(i % 30), int32((7 * i) % 30)}, g, 0.01)
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
		a := mustNewAdapter(cfg)
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
	ra, rb := a.exportAllRows(), b.exportAllRows()
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
	for i, v := range a.copyB().Data {
		if math.Float64bits(v) != math.Float64bits(b.copyB().Data[i]) {
			t.Fatalf("B[%d]: %v vs %v", i, v, b.copyB().Data[i])
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
	a := mustNewAdapter(cfg)
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

// A warm adapter's Train allocates nothing across block fills and an
// adaptation pass that keeps the rank; with rank adaptation off it keeps no
// gradient ring at all.
func TestTrainAcrossAdaptSteadyStateAllocs(t *testing.T) {
	for _, fixed := range []bool{false, true} {
		cfg := testConfig() // GradWindow 64: two blocks; AdaptInterval 50
		cfg.InitialRank = 8 // full-rank gradients at MaxRank: every pass re-decides 8
		cfg.Alpha = 1
		cfg.PruneThresh = 0
		cfg.DisableRankAdapt = fixed
		a := mustNewAdapter(cfg)
		rng := tensor.NewRNG(9)
		g, ids := make([]float64, cfg.Dim), make([]int32, 2)
		step := func(i int) {
			for j := range g {
				g[j] = rng.NormFloat64()
			}
			ids[0], ids[1] = int32(i%30), int32((7*i)%30)
			a.train(ids, g, 0.01)
		}
		for i := 0; i < 300; i++ {
			step(i)
		}
		passes := a.Adaptations()
		if n := testing.AllocsPerRun(1, func() {
			for i := 0; i < 2*cfg.AdaptInterval; i++ {
				step(i)
			}
		}); n != 0 {
			t.Fatalf("fixed rank %v: %d warm Train calls allocate %v times, want 0", fixed, 2*cfg.AdaptInterval, n)
		}
		if a.Rank() != 8 || a.Adaptations() <= passes {
			t.Fatalf("fixed rank %v: fixture moved: rank %d, passes %d→%d", fixed, a.Rank(), passes, a.Adaptations())
		}
		if ring := a.grads != nil; ring == fixed {
			t.Fatalf("fixed rank %v: gradient ring allocated = %v", fixed, ring)
		}
	}
}

// driftingGradients returns a stream of pooled gradients whose mean and
// principal directions jump every 150 steps (out of step with the 32-slot
// blocks), so a gradient window spans regimes: what the block merge's
// between-block term and the open block carry moves the rank decisions.
func driftingGradients(seed uint64, dim int) func() []float64 {
	rng := tensor.NewRNG(seed)
	g := make([]float64, dim)
	var mean []float64
	var basis *tensor.Matrix
	step := 0
	return func() []float64 {
		if step%150 == 0 {
			mean = make([]float64, dim)
			for j := range mean {
				mean[j] = 3 * rng.NormFloat64()
			}
			basis = tensor.RandomMatrix(rng, 1+rng.Intn(dim/2), dim, 1)
		}
		step++
		for j := range g {
			g[j] = mean[j] + 0.3*rng.NormFloat64()
		}
		for k := 0; k < basis.Rows; k++ {
			tensor.Axpy(rng.NormFloat64()*float64(basis.Rows-k), basis.Row(k), g)
		}
		return g
	}
}

// The adapter's block-merged window covariance makes the rank decisions the
// whole-window reference makes — every r_t, rank, pass and eviction — on
// windows that are and are not a multiple of the block, across the ring's
// first fill, its wraps, and a Reset in the middle of a block.
func TestBlockMomentsMatchWholeWindow(t *testing.T) {
	const universe, dim, steps, resetAt = 500, 16, 5000, 2017
	for _, interval := range []int{40, 64, 128} {
		for _, window := range []int{100, 256} {
			cfg := DefaultConfig(universe, dim)
			cfg.AdaptInterval = interval
			cfg.GradWindow = window
			cfg.CMax = 120
			cfg.Seed = uint64(interval + window)
			flat, ref := mustNewAdapter(cfg), newRefAdapter(cfg)
			next := driftingGradients(cfg.Seed, dim)
			rng := tensor.NewRNG(cfg.Seed)
			ids := make([]int32, 3)
			ranks := map[int]bool{}
			for step := 0; step < steps; step++ {
				if step == resetAt {
					if flat.grads.next%gradBlock == 0 {
						t.Fatalf("fixture: the Reset at step %d lands on a block boundary", step)
					}
					flat.reset()
					ref.reset()
				}
				for i := range ids {
					ids[i] = int32(rng.Intn(universe / (1 + 9*(i%2))))
				}
				g := next()
				flat.train(ids, g, 0.01)
				ref.train(ids, g, 0.01)
				if flat.Rank() != ref.rank || flat.rankObsSum != ref.rankObsSum || flat.rankObsCount != ref.rankObsCount ||
					flat.Adaptations() != ref.adaptations || flat.pruned != ref.pruned || flat.ActiveCount() != len(ref.rows) {
					t.Fatalf("interval %d window %d step %d: rank %d/%d Σr_t %d/%d passes %d/%d pruned %d/%d rows %d/%d",
						interval, window, step, flat.Rank(), ref.rank, flat.rankObsSum, ref.rankObsSum,
						flat.Adaptations(), ref.adaptations, flat.pruned, ref.pruned, flat.ActiveCount(), len(ref.rows))
				}
				ranks[flat.Rank()] = true
			}
			if !sameBits(flat.copyB().Data, ref.b.Data) {
				t.Fatalf("interval %d window %d: B differs after identical rank decisions", interval, window)
			}
			if len(ranks) < 3 || flat.pruned == 0 {
				t.Fatalf("interval %d window %d: fixture too quiet: ranks %v, %d rows pruned", interval, window, ranks, flat.pruned)
			}
		}
	}
}

// The prune step keeps the CMax most frequently updated rows (ties to the
// lower id) when a sync has pushed the table past capacity.
func TestPruneClampsToCapacityByFrequency(t *testing.T) {
	cfg := testConfig()
	cfg.AdaptInterval = 1 << 30
	cfg.CMax = 3
	cfg.DisableRankAdapt = true
	a := mustNewAdapter(cfg)
	var foreign []RowUpdate
	for id := int32(0); id < 6; id++ {
		foreign = append(foreign, RowUpdate{ID: id, Row: make([]float64, cfg.InitialRank)})
	}
	a.applyState(TableState{Rows: foreign}) // six rows in a table of capacity three
	g := make([]float64, cfg.Dim)
	g[0] = 1
	for id, times := range map[int32]int{0: 1, 1: 3, 2: 2, 3: 2, 4: 5} { // 5 never trained
		for i := 0; i < times; i++ {
			a.train([]int32{id}, g, 0.01)
		}
	}
	a.adapt()
	for id, want := range map[int32]bool{0: false, 1: true, 2: true, 3: false, 4: true, 5: false} {
		if has(a, id) != want {
			t.Fatalf("id %d resident = %v, want %v", id, has(a, id), want)
		}
	}
	if a.pruned != 3 {
		t.Fatalf("pruned %d rows, want 3", a.pruned)
	}
}
