package lora

import (
	"math"
	"slices"
	"sync"
	"testing"

	"liveupdate/internal/emt"
	"liveupdate/internal/tensor"
)

func sameBits(x, y []float64) bool {
	return slices.EqualFunc(x, y, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
}

func sameRows(x, y []RowUpdate) bool {
	return slices.EqualFunc(x, y, func(a, b RowUpdate) bool { return a.ID == b.ID && sameBits(a.Row, b.Row) })
}

// Model-based test of the flat row store: random operation sequences run on a
// one-table Set and on the map-based reference, and after every step the two
// must agree bit for bit on everything observable — across index growth, slab
// growth and the compaction that ends a pruning pass.
func TestStoreMatchesMapReference(t *testing.T) {
	const universe, dim = 700, 8
	for seed := uint64(1); seed <= 6; seed++ {
		cfg := DefaultConfig(universe, dim)
		cfg.AdaptInterval = 16
		cfg.GradWindow = 32
		cfg.CMax = 40 + 80*int(seed%3) // 40 makes the capacity clamp bind; 200 grows the index
		cfg.PruneThresh = 1 + int(seed%2)
		cfg.Seed = seed
		base := emt.NewGroup(1, universe, dim, tensor.NewRNG(seed))
		set := MustNewSet(base, cfg)
		flat := set.Adapters[0]
		ref := newRefAdapter(flat.cfg)
		rng := tensor.NewRNG(seed * 977)

		randRow := func(width int) []float64 {
			row := make([]float64, width)
			for k := range row {
				row[k] = rng.NormFloat64()
			}
			return row
		}
		randState := func() TableState {
			var ts TableState
			for n := rng.Intn(30); n > 0; n-- {
				ts.Rows = append(ts.Rows, RowUpdate{ID: int32(rng.Intn(universe)), Row: randRow(1 + rng.Intn(dim))})
			}
			if rng.Intn(2) == 0 {
				ts.B = &tensor.Matrix{Rows: 1 + rng.Intn(dim), Cols: dim}
				ts.B.Data = randRow(ts.B.Rows * dim)
			}
			return ts
		}
		// Ids are drawn hot-heavy so rows survive windows, with a cold tail
		// that is created, pruned and re-created.
		randID := func() int32 {
			if rng.Intn(3) > 0 {
				return int32(rng.Intn(30))
			}
			return int32(rng.Intn(universe))
		}

		delta, want := make([]float64, dim), make([]float64, dim)
		for step := 0; step < 1500; step++ {
			op := "train"
			switch r := rng.Intn(100); {
			case r < 80:
				ids := make([]int32, 1+rng.Intn(4))
				for i := range ids {
					ids[i] = randID()
				}
				g := randRow(dim)
				set.ApplyGrad(0, ids, g, 0.05)
				ref.train(ids, g, 0.05)
			case r < 84:
				op = "ApplyRows"
				ts := randState()
				flat.ApplyRows(ts.Rows)
				ref.applyState(TableState{Rows: ts.Rows})
			case r < 87:
				op = "SetB"
				b := &tensor.Matrix{Rows: 1 + rng.Intn(dim), Cols: dim}
				b.Data = randRow(b.Rows * dim)
				flat.SetB(b)
				ref.applyState(TableState{B: b})
			case r < 91:
				op = "Resize"
				r := 1 + rng.Intn(dim)
				flat.Resize(r)
				ref.resize(r)
			case r < 92:
				op = "Reset"
				flat.Reset()
				ref.reset()
			case r < 95:
				op = "Snapshot"
				got := set.Snapshot()[0]
				if !sameRows(got.Rows, ref.export(true)) || !sameBits(got.B.Data, ref.b.Data) || got.Rank != ref.rank {
					t.Fatalf("seed %d step %d: Snapshot differs from the reference", seed, step)
				}
				ref.resetSupport()
			case r < 98:
				op = "Publish"
				ts := randState()
				set.Publish([]TableState{ts}, int64(step))
				ref.applyState(ts)
			default:
				op = "adapt"
				flat.adapt()
				ref.adapt()
			}

			if flat.Rank() != ref.rank || flat.ActiveCount() != len(ref.rows) || flat.SizeBytes() != ref.sizeBytes() ||
				flat.Adaptations() != ref.adaptations || flat.PrunedTotal() != ref.pruned {
				t.Fatalf("seed %d step %d (%s): rank %d/%d rows %d/%d bytes %d/%d passes %d/%d pruned %d/%d", seed, step, op,
					flat.Rank(), ref.rank, flat.ActiveCount(), len(ref.rows), flat.SizeBytes(), ref.sizeBytes(),
					flat.Adaptations(), ref.adaptations, flat.PrunedTotal(), ref.pruned)
			}
			if !sameBits(flat.B().Data, ref.b.Data) {
				t.Fatalf("seed %d step %d (%s): B differs", seed, step, op)
			}
			for id := int32(-1); id <= universe; id++ { // -1 and universe: never resident
				flat.Delta(id, delta)
				ref.delta(id, want)
				_, resident := ref.rows[id]
				if !sameBits(delta, want) || flat.Has(id) != resident {
					t.Fatalf("seed %d step %d (%s): id %d: delta %v want %v, resident %v want %v", seed, step, op, id, delta, want, flat.Has(id), resident)
				}
			}
			support := flat.ExportSupport()
			if !sameRows(support, ref.export(true)) || flat.SupportSize() != len(support) {
				t.Fatalf("seed %d step %d (%s): ExportSupport differs (%d rows, SupportSize %d, reference %d)", seed, step, op,
					len(support), flat.SupportSize(), len(ref.export(true)))
			}
			if !sameRows(flat.ExportAllRows(), ref.export(false)) {
				t.Fatalf("seed %d step %d (%s): ExportAllRows differs", seed, step, op)
			}
			if rs := flat.cur.Load().rows; rs.n != len(rs.meta) || len(rs.a) != len(rs.meta)*rs.rank || 2*rs.n > len(rs.cells) {
				t.Fatalf("seed %d step %d (%s): store out of shape: %d indexed, %d slots, slab %d at rank %d, %d cells", seed, step, op,
					rs.n, len(rs.meta), len(rs.a), rs.rank, len(rs.cells))
			}
		}
		if flat.Adaptations() < 20 || flat.PrunedTotal() == 0 {
			t.Fatalf("seed %d: fixture too quiet: %d passes, %d rows pruned", seed, flat.Adaptations(), flat.PrunedTotal())
		}
	}
}

// An id whose row was trained (so it is in the support set), then pruned, is
// still in the support when a sync re-installs it: Algorithm 3's support is a
// set of ids. The flat store keeps support bits per row, so this is the one
// case that needs the adapter's ghost set.
func TestSupportSurvivesPruneAndReinstall(t *testing.T) {
	cfg := testConfig()
	cfg.AdaptInterval = 1 << 30
	a := MustNewAdapter(cfg)
	g := make([]float64, cfg.Dim)
	g[0] = 1
	a.Train([]int32{4, 5}, g, 0.1)
	a.adapt() // both trained this window: kept
	a.Train([]int32{5}, g, 0.1)
	a.adapt() // 4 idle: pruned while in the support
	if a.Has(4) || a.SupportSize() != 1 {
		t.Fatalf("fixture: id 4 resident=%v, support %d", a.Has(4), a.SupportSize())
	}
	a.ApplyRows([]RowUpdate{{ID: 4, Row: []float64{1, 2, 3, 4}}, {ID: 6, Row: []float64{1, 2, 3, 4}}})
	var got []int32
	for _, u := range a.ExportSupport() {
		got = append(got, u.ID)
	}
	if !slices.Equal(got, []int32{4, 5}) {
		t.Fatalf("support after re-install = %v, want [4 5] (6 is foreign state)", got)
	}
	a.ResetSupport()
	a.adapt() // prunes everything
	a.ApplyRows([]RowUpdate{{ID: 4, Row: []float64{1, 2, 3, 4}}})
	if n := a.SupportSize(); n != 0 {
		t.Fatalf("ResetSupport must forget ghosts: support %d", n)
	}
}

// Shrinking to a rank above the number of active rows used to install
// factors narrower than the rank (TruncatedSVD clamps to the row count) and
// the next Train indexed past them.
func TestResizeShrinkWithFewRows(t *testing.T) {
	cfg := testConfig()
	cfg.InitialRank = 6
	a := MustNewAdapter(cfg)
	seedAdapter(a, 2)
	before := make([]float64, cfg.Dim)
	a.Delta(1, before)
	a.Resize(4)
	if b := a.B(); a.Rank() != 4 || b.Rows != 4 || len(liveRow(a, 1)) != 4 {
		t.Fatalf("rank %d, B %d×%d, row width %d; want 4 everywhere", a.Rank(), b.Rows, b.Cols, len(liveRow(a, 1)))
	}
	after := make([]float64, cfg.Dim)
	a.Delta(1, after)
	for i := range after {
		if math.Abs(after[i]-before[i]) > 1e-9 {
			t.Fatalf("two rows fit in rank 4 exactly: delta moved %v → %v", before, after)
		}
	}
	a.Train([]int32{0, 1, 2}, make([]float64, cfg.Dim), 0.1)
}

// Exported rows share one backing array; appending to one must not reach
// the next.
func TestExportRowsAreCapacityLimited(t *testing.T) {
	a := MustNewAdapter(testConfig())
	seedAdapter(a, 3)
	rows := a.ExportAllRows()
	next := slices.Clone(rows[1].Row)
	rows[0].Row = append(rows[0].Row, 42)
	if !sameBits(rows[1].Row, next) {
		t.Fatal("append to one exported row overwrote its neighbour")
	}
	rows[1].Row[0] = 99
	if liveRow(a, rows[1].ID)[0] == 99 {
		t.Fatal("exported rows must be copies")
	}
}

// Lock-free readers racing the publish path and Resize see one whole state or
// the other. The two published states are built so that any mix — A rows of
// one with B of the other, or a row half copied — lands far from both of
// their deltas. (Resize re-factors the same ∆W, exactly when growing and up
// to rounding when shrinking.) Run under -race this is also the proof that a
// clone shares no written memory with the store readers hold.
func TestLookupSeesOldOrNewNeverTorn(t *testing.T) {
	const ids, dim = 64, 8
	base := emt.NewGroup(1, ids, dim, tensor.NewRNG(3))
	cfg := DefaultConfig(ids, dim)
	set := MustNewSet(base, cfg)
	a := set.Adapters[0]

	// State s: every row is the unit vector e_s, B row s is dirs[s], and B's
	// other rows are poison.
	dirs := [2][]float64{make([]float64, dim), make([]float64, dim)}
	var states [2][]TableState
	for s := range states {
		b := tensor.NewMatrix(cfg.InitialRank, dim)
		for i := range b.Data {
			b.Data[i] = 1e6
		}
		for j := range dirs[s] {
			dirs[s][j] = float64(1 + s*10 + j)
		}
		copy(b.Row(s), dirs[s])
		rows := make([]RowUpdate, ids)
		for id := range rows {
			rows[id] = RowUpdate{ID: int32(id), Row: make([]float64, cfg.InitialRank)}
			rows[id].Row[s] = 1
		}
		states[s] = []TableState{{Rows: rows, B: b, Rank: cfg.InitialRank}}
	}
	set.Publish(states[0], 0)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	errs := make(chan []float64, 4)
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			got := make([]float64, dim)
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				a.Delta(int32(i%ids), got)
				ok := false
				for _, want := range dirs {
					near := true
					for j := range got {
						near = near && math.Abs(got[j]-want[j]) < 1e-6
					}
					ok = ok || near
				}
				if !ok || !a.Has(int32(i%ids)) {
					errs <- slices.Clone(got)
					return
				}
			}
		}(g)
	}
	for i := 1; i <= 300; i++ {
		set.Publish(states[i%2], int64(i))
		if i%3 == 0 {
			a.Resize(cfg.InitialRank + 2) // grow: same ∆W bit for bit
			a.Resize(cfg.InitialRank)     // shrink: re-factored, equal up to rounding
		}
	}
	close(stop)
	readers.Wait()
	select {
	case got := <-errs:
		t.Fatalf("a reader saw a delta that belongs to neither state: %v", got)
	default:
	}
}

// New rows cost no allocation once the slab, the per-slot array and the index
// have grown to the working set: the rows are created, pruned by the next
// adaptation passes and created again.
func TestTrainNewRowsSteadyStateAllocs(t *testing.T) {
	cfg := DefaultConfig(4096, 8)
	cfg.AdaptInterval = 32
	cfg.DisableRankAdapt = true
	a := MustNewAdapter(cfg)
	g := make([]float64, cfg.Dim)
	g[1] = 1
	next := int32(0)
	ids := make([]int32, 4)
	step := func() {
		for i := range ids {
			ids[i] = next % 4096
			next++
		}
		a.Train(ids, g, 0.01)
	}
	for i := 0; i < 2048; i++ { // two laps over the id space: every array at its high-water mark
		step()
	}
	created := a.PrunedTotal()
	if n := testing.AllocsPerRun(1024, step); n != 0 {
		t.Fatalf("Train creating new rows allocates %v times per call, want 0", n)
	}
	if a.PrunedTotal()-created < 4000 {
		t.Fatalf("fixture: only %d rows were created and pruned during the measurement", a.PrunedTotal()-created)
	}
}

// Snapshot and Publish cost a fixed number of allocations per table, whatever
// the number of rows they move.
func TestSnapshotPublishAllocsIndependentOfRows(t *testing.T) {
	// Snapshot: the RowUpdate slice, the rows' backing array, B's header and
	// data. Publish: the cloned store (header, index, per-slot array, slab),
	// the state record, B's header and data. Plus the slice of tables, and
	// the Version.
	const perTableSnapshot, perTablePublish = 4, 7
	for _, rows := range []int{10, 1000} {
		base := emt.NewGroup(3, 2048, 8, tensor.NewRNG(1))
		cfg := DefaultConfig(2048, 8)
		cfg.AdaptInterval = 1 << 30
		src, dst := MustNewSet(base, cfg), MustNewSet(base, cfg)
		g := make([]float64, 8)
		g[2] = 1
		train := func() {
			for table := range src.Adapters {
				for id := int32(0); int(id) < rows; id++ {
					src.ApplyGrad(table, []int32{id}, g, 0.01)
				}
			}
		}
		train()
		state := src.Snapshot()
		snapshot := testing.AllocsPerRun(10, func() {
			train() // allocation-free: the rows exist
			state = src.Snapshot()
		})
		if len(state[0].Rows) != rows {
			t.Fatalf("snapshot carries %d rows, want %d", len(state[0].Rows), rows)
		}
		dst.Publish(state, 0)
		publish := testing.AllocsPerRun(10, func() { dst.Publish(state, 1) })
		tables := float64(len(src.Adapters))
		if snapshot > 1+perTableSnapshot*tables || publish > 1+perTablePublish*tables {
			t.Fatalf("%d rows per table: Snapshot %v allocs, Publish %v allocs over %v tables; want at most 1+%d and 1+%d per table",
				rows, snapshot, publish, tables, perTableSnapshot, perTablePublish)
		}
	}
}

// A merged state carrying a row id outside its base table is refused whole:
// the panic comes before any adapter is touched. (A negative id would also
// collide with the store's "no row" marker.)
func TestApplyStateRefusesIDsOutsideTheTable(t *testing.T) {
	for _, bad := range []int32{-1, 100, math.MaxInt32} {
		s := newTestSet(t) // 3 tables × 100 rows
		states := make([]TableState, 3)
		states[0].Rows = []RowUpdate{{ID: 5, Row: []float64{1, 2, 3, 4}}}
		states[2].Rows = []RowUpdate{{ID: 7, Row: []float64{1, 2, 3, 4}}, {ID: bad, Row: []float64{1, 2, 3, 4}}}
		for name, install := range map[string]func(){
			"ApplyState": func() { s.ApplyState(states) },
			"Publish":    func() { s.Publish(states, 1) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s accepted row id %d in a 100-row table", name, bad)
					}
				}()
				install()
			}()
			if s.Adapters[0].Has(5) || s.Adapters[2].ActiveCount() != 0 || s.Epoch() != -1 {
				t.Fatalf("%s installed part of a refused state (id %d)", name, bad)
			}
		}
	}
}
