package lora

import (
	"fmt"
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
		set := mustNewSet(base, cfg)
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

		got, want := make([]float64, dim), make([]float64, dim)
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
				op = "applyState(Rows)"
				ts := randState()
				flat.applyState(TableState{Rows: ts.Rows})
				ref.applyState(TableState{Rows: ts.Rows})
			case r < 87:
				op = "applyState(B)"
				b := &tensor.Matrix{Rows: 1 + rng.Intn(dim), Cols: dim}
				b.Data = randRow(b.Rows * dim)
				flat.applyState(TableState{B: b})
				ref.applyState(TableState{B: b})
			case r < 91:
				op = "Resize"
				r := 1 + rng.Intn(dim)
				flat.Resize(r)
				ref.resize(r)
			case r < 92:
				op = "Reset"
				flat.reset()
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
				flat.Adaptations() != ref.adaptations || flat.pruned != ref.pruned {
				t.Fatalf("seed %d step %d (%s): rank %d/%d rows %d/%d bytes %d/%d passes %d/%d pruned %d/%d", seed, step, op,
					flat.Rank(), ref.rank, flat.ActiveCount(), len(ref.rows), flat.SizeBytes(), ref.sizeBytes(),
					flat.Adaptations(), ref.adaptations, flat.pruned, ref.pruned)
			}
			if !sameBits(flat.copyB().Data, ref.b.Data) {
				t.Fatalf("seed %d step %d (%s): B differs", seed, step, op)
			}
			for id := int32(-1); id <= universe; id++ { // -1 and universe: never resident
				delta(flat, id, got)
				ref.delta(id, want)
				_, resident := ref.rows[id]
				if !sameBits(got, want) || has(flat, id) != resident {
					t.Fatalf("seed %d step %d (%s): id %d: delta %v want %v, resident %v want %v", seed, step, op, id, got, want, has(flat, id), resident)
				}
			}
			support := flat.exportSupport()
			if !sameRows(support, ref.export(true)) || flat.rows.dirty != len(support) {
				t.Fatalf("seed %d step %d (%s): exportSupport differs (%d rows, support %d, reference %d)", seed, step, op,
					len(support), flat.rows.dirty, len(ref.export(true)))
			}
			if !sameRows(flat.exportAllRows(), ref.export(false)) {
				t.Fatalf("seed %d step %d (%s): exportAllRows differs", seed, step, op)
			}
			if rs := &flat.rows; rs.n != len(rs.meta) || len(rs.a) != len(rs.meta)*rs.rank || 2*rs.n > len(rs.cells) {
				t.Fatalf("seed %d step %d (%s): store out of shape: %d indexed, %d slots, slab %d at rank %d, %d cells", seed, step, op,
					rs.n, len(rs.meta), len(rs.a), rs.rank, len(rs.cells))
			}
		}
		if flat.Adaptations() < 20 || flat.pruned == 0 {
			t.Fatalf("seed %d: fixture too quiet: %d passes, %d rows pruned", seed, flat.Adaptations(), flat.pruned)
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
	a := mustNewAdapter(cfg)
	g := make([]float64, cfg.Dim)
	g[0] = 1
	a.train([]int32{4, 5}, g, 0.1)
	a.adapt() // both trained this window: kept
	a.train([]int32{5}, g, 0.1)
	a.adapt() // 4 idle: pruned while in the support
	if has(a, 4) || a.rows.dirty != 1 {
		t.Fatalf("fixture: id 4 resident=%v, support %d", has(a, 4), a.rows.dirty)
	}
	a.applyState(TableState{Rows: []RowUpdate{{ID: 4, Row: []float64{1, 2, 3, 4}}, {ID: 6, Row: []float64{1, 2, 3, 4}}}})
	var got []int32
	for _, u := range a.exportSupport() {
		got = append(got, u.ID)
	}
	if !slices.Equal(got, []int32{4, 5}) {
		t.Fatalf("support after re-install = %v, want [4 5] (6 is foreign state)", got)
	}
	a.resetSupport()
	a.adapt() // prunes everything
	a.applyState(TableState{Rows: []RowUpdate{{ID: 4, Row: []float64{1, 2, 3, 4}}}})
	if n := a.rows.dirty; n != 0 {
		t.Fatalf("resetSupport must forget ghosts: support %d", n)
	}
}

// Shrinking to a rank above the number of active rows used to install
// factors narrower than the rank (TruncatedSVD clamps to the row count) and
// the next Train indexed past them.
func TestResizeShrinkWithFewRows(t *testing.T) {
	cfg := testConfig()
	cfg.InitialRank = 6
	a := mustNewAdapter(cfg)
	seedAdapter(a, 2)
	before := make([]float64, cfg.Dim)
	delta(a, 1, before)
	a.Resize(4)
	if b := a.copyB(); a.Rank() != 4 || b.Rows != 4 || len(liveRow(a, 1)) != 4 {
		t.Fatalf("rank %d, B %d×%d, row width %d; want 4 everywhere", a.Rank(), b.Rows, b.Cols, len(liveRow(a, 1)))
	}
	after := make([]float64, cfg.Dim)
	delta(a, 1, after)
	for i := range after {
		if math.Abs(after[i]-before[i]) > 1e-9 {
			t.Fatalf("two rows fit in rank 4 exactly: delta moved %v → %v", before, after)
		}
	}
	a.train([]int32{0, 1, 2}, make([]float64, cfg.Dim), 0.1)
}

// Exported rows share one backing array; appending to one must not reach
// the next.
func TestExportRowsAreCapacityLimited(t *testing.T) {
	a := mustNewAdapter(testConfig())
	seedAdapter(a, 3)
	rows := a.exportAllRows()
	next := slices.Clone(rows[1].Row)
	rows[0].Row = append(rows[0].Row, 42)
	if !sameBits(rows[1].Row, next) {
		t.Fatal("append to one exported row overwrote its neighbour")
	}
	rows[1].Row[0] = 99
	if liveRow(a, rows[1].ID)[0] == 99 {
		t.Fatal("exported rows must be copies")
	}

	// One Snapshot carves every table from shared slabs, laid out table by
	// table: rows, then B. Appending to a table's RowUpdates, to its last row
	// or to its B must reach neither its own B nor the next table.
	s := newTestSet(t)
	g := make([]float64, 8)
	g[1] = 1
	for table := range s.Adapters {
		s.ApplyGrad(table, []int32{1, 2}, g, 0.05)
	}
	snap := s.Snapshot()
	b0, next0, nextB := slices.Clone(snap[0].B.Data), snap[1].Rows[0], slices.Clone(snap[1].B.Data)
	next0.Row = slices.Clone(next0.Row)
	snap[0].Rows = append(snap[0].Rows, RowUpdate{ID: 77})
	snap[0].Rows[1].Row = append(snap[0].Rows[1].Row, 42)
	snap[0].B.Data = append(snap[0].B.Data, 42)
	if !sameBits(snap[0].B.Data[:len(b0)], b0) || !sameRows(snap[1].Rows[:1], []RowUpdate{next0}) || !sameBits(snap[1].B.Data, nextB) {
		t.Fatal("an append to one table of a Snapshot overwrote another slice of it")
	}
}

// ExportFull hands out copies that share no memory with either side of the
// catch-up path it feeds: export from a donor, Resize a receiver to the
// donor's rank, Publish. Training and resizing both sets afterwards leaves the
// export's bits alone, and poisoning the export moves no effective row of
// either set.
func TestExportFullSharesNoMemory(t *testing.T) {
	donor, recv := newTestSet(t), newTestSet(t)
	g := make([]float64, 8)
	for i := range g {
		g[i] = float64(i) - 3.5
	}
	trainAll := func(s *Set) {
		for table := range s.Adapters {
			s.ApplyGrad(table, []int32{1, 2, 3}, g, 0.05)
			s.ApplyGrad(table, []int32{3, 40}, g, 0.05)
		}
	}
	trainAll(donor)
	for _, a := range donor.Adapters {
		a.Resize(a.Rank() + 2)
	}
	state := donor.ExportFull()
	for table, ts := range state {
		recv.Adapters[table].Resize(ts.Rank)
	}
	recv.Publish(state, 0)

	var want []TableState
	for _, ts := range state {
		c := TableState{B: ts.B.Clone(), Rank: ts.Rank}
		for _, u := range ts.Rows {
			c.Rows = append(c.Rows, RowUpdate{ID: u.ID, Row: slices.Clone(u.Row)})
		}
		want = append(want, c)
	}
	rowsOf := func(s *Set) [][]float64 {
		var out [][]float64
		for table := range s.Adapters {
			for id := int32(0); id < 50; id++ {
				row := make([]float64, 8)
				s.EffectiveRow(table, id, row)
				out = append(out, row)
			}
		}
		return out
	}

	for _, s := range []*Set{donor, recv} {
		trainAll(s)
		for _, a := range s.Adapters {
			a.Resize(a.Rank() + 1)
			a.Resize(a.Rank() - 2)
		}
		trainAll(s)
	}
	for table, ts := range state {
		if ts.Rank != want[table].Rank || !sameRows(ts.Rows, want[table].Rows) || !sameBits(ts.B.Data, want[table].B.Data) {
			t.Fatalf("table %d: the export moved when the sets trained and resized", table)
		}
	}

	donorRows, recvRows := rowsOf(donor), rowsOf(recv)
	for _, ts := range state {
		for _, u := range ts.Rows {
			for k := range u.Row {
				u.Row[k] = 1e9
			}
		}
		for i := range ts.B.Data {
			ts.B.Data[i] = 1e9
		}
	}
	for i, row := range rowsOf(donor) {
		if !sameBits(row, donorRows[i]) {
			t.Fatalf("poisoning the export moved the donor's effective row %d", i)
		}
	}
	for i, row := range rowsOf(recv) {
		if !sameBits(row, recvRows[i]) {
			t.Fatalf("poisoning the export moved the receiver's effective row %d", i)
		}
	}
}

// Readers racing Publish and Resize see one whole state or the other, under
// the discipline core.System follows: readers hold a read lock, every write
// holds it for write. The two published states are built so that any mix — A
// rows of one with B of the other, or a row half copied — lands far from both
// of their deltas. (Resize re-factors the same ∆W, exactly when growing and
// up to rounding when shrinking.) Run under -race this is also the proof that
// an in-place install and a resize write nothing outside that lock.
func TestLookupSeesOldOrNewNeverTorn(t *testing.T) {
	const ids, dim = 64, 8
	base := emt.NewGroup(1, ids, dim, tensor.NewRNG(3))
	cfg := DefaultConfig(ids, dim)
	set := mustNewSet(base, cfg)
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

	var params sync.RWMutex
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
				params.RLock()
				delta(a, int32(i%ids), got)
				resident := has(a, int32(i%ids))
				params.RUnlock()
				ok := false
				for _, want := range dirs {
					near := true
					for j := range got {
						near = near && math.Abs(got[j]-want[j]) < 1e-6
					}
					ok = ok || near
				}
				if !ok || !resident {
					errs <- slices.Clone(got)
					return
				}
			}
		}(g)
	}
	locked := func(write func()) {
		params.Lock()
		defer params.Unlock()
		write()
	}
	for i := 1; i <= 300; i++ {
		locked(func() { set.Publish(states[i%2], int64(i)) })
		if i%3 == 0 {
			locked(func() { a.Resize(cfg.InitialRank + 2) }) // grow: same ∆W bit for bit
			locked(func() { a.Resize(cfg.InitialRank) })     // shrink: re-factored, equal up to rounding
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
	a := mustNewAdapter(cfg)
	g := make([]float64, cfg.Dim)
	g[1] = 1
	next := int32(0)
	ids := make([]int32, 4)
	step := func() {
		for i := range ids {
			ids[i] = next % 4096
			next++
		}
		a.train(ids, g, 0.01)
	}
	for i := 0; i < 2048; i++ { // two laps over the id space: every array at its high-water mark
		step()
	}
	created := a.pruned
	if n := testing.AllocsPerRun(1024, step); n != 0 {
		t.Fatalf("Train creating new rows allocates %v times per call, want 0", n)
	}
	if a.pruned-created < 4000 {
		t.Fatalf("fixture: only %d rows were created and pruned during the measurement", a.pruned-created)
	}
}

// A warm Snapshot allocates nothing, whatever the number of tables and rows
// it copies, and a Publish whose ids all have a row installs in place without
// allocating.
func TestSnapshotPublishAllocsIndependentOfRows(t *testing.T) {
	// Snapshot carves everything from four slabs the Set keeps — the tables,
	// the B headers, the RowUpdates, and the coefficients with the B data —
	// and the first Snapshot has already grown them to this size.
	const perSetSnapshot = 0
	for _, rows := range []int{10, 1000} {
		base := emt.NewGroup(3, 2048, 8, tensor.NewRNG(1))
		cfg := DefaultConfig(2048, 8)
		cfg.AdaptInterval = 1 << 30
		src, dst := mustNewSet(base, cfg), mustNewSet(base, cfg)
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
		if snapshot > perSetSnapshot || publish != 0 {
			t.Fatalf("%d rows in each of %d tables: Snapshot %v allocs, Publish %v allocs; want at most %d and 0",
				rows, len(src.Adapters), snapshot, publish, perSetSnapshot)
		}
	}
}

// A merged state carrying a row id outside its base table, or a B of the
// wrong shape, is refused whole: the panic comes before any adapter is
// touched. (A negative id would also collide with the store's "no row"
// marker.)
func TestApplyStateRefusesIDsOutsideTheTable(t *testing.T) {
	row := func(id int32) RowUpdate { return RowUpdate{ID: id, Row: []float64{1, 2, 3, 4}} }
	badB := map[string]*tensor.Matrix{
		"B 4×5":                tensor.NewMatrix(4, 5),
		"B 4×8 with 31 values": {Rows: 4, Cols: 8, Data: make([]float64, 31)},
	}
	cases := map[string][]TableState{}
	for _, bad := range []int32{-1, 100, math.MaxInt32} {
		cases[fmt.Sprintf("row id %d", bad)] = []TableState{{Rows: []RowUpdate{row(5)}}, {}, {Rows: []RowUpdate{row(7), row(bad)}}}
	}
	for name, b := range badB {
		cases[name] = []TableState{{Rows: []RowUpdate{row(5)}}, {B: b}, {Rows: []RowUpdate{row(7)}}}
	}
	for bad, states := range cases {
		s := newTestSet(t) // 3 tables × 100 rows of dim 8
		for name, install := range map[string]func(){
			"applyState": func() { s.applyState(states) },
			"Publish":    func() { s.Publish(states, 1) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s accepted a state with %s", name, bad)
					}
				}()
				install()
			}()
			if has(s.Adapters[0], 5) || s.Adapters[2].ActiveCount() != 0 || s.Epoch() != -1 {
				t.Fatalf("%s installed part of a refused state (%s)", name, bad)
			}
		}
	}
}
