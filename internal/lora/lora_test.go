package lora

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"liveupdate/internal/emt"
	"liveupdate/internal/tensor"
)

func mustNewAdapter(cfg Config) *Adapter {
	a, err := newAdapter(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

func mustNewSet(base *emt.Group, cfg Config) *Set {
	s, err := NewSet(base, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// has reports whether id holds a LoRA row: the Hot Index Filter check.
func has(a *Adapter, id int32) bool { return a.rows.find(id) >= 0 }

// delta writes W_lora(id) - W_base(id) = A[id]·B into dst; an id without a
// row gives zero.
func delta(a *Adapter, id int32, dst []float64) {
	clear(dst)
	a.accumulate(id, 1, dst)
}

// exportSupport copies one adapter's support as Snapshot does, without
// clearing it; exportAllRows copies every row as ExportFull does.
func (a *Adapter) exportSupport() []RowUpdate { return a.export(true) }
func (a *Adapter) exportAllRows() []RowUpdate { return a.export(false) }

func (a *Adapter) export(dirtyOnly bool) []RowUpdate {
	rs := &a.rows
	n := rs.exportCount(dirtyOnly)
	return rs.exportInto(dirtyOnly, make([]RowUpdate, n), make([]float64, n*rs.rank))
}

// copyB returns a copy of the adapter's shared factor.
func (a *Adapter) copyB() *tensor.Matrix { return a.b.Clone() }

// exportState is Snapshot without clearing the supports.
func (s *Set) exportState() []TableState { return s.export(true, new(exportSlabs)) }

func testConfig() Config {
	cfg := DefaultConfig(100, 8)
	cfg.AdaptInterval = 50
	cfg.GradWindow = 64
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig().validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Dim = 0 },
		func(c *Config) { c.InitialRank = 0 },
		func(c *Config) { c.InitialRank = c.Dim + 1 },
		func(c *Config) { c.MinRank = 0 },
		func(c *Config) { c.MinRank = c.MaxRank + 1 },
		func(c *Config) { c.MaxRank = c.Dim + 1 },
		func(c *Config) { c.MinRank = c.InitialRank + 1 }, // InitialRank below MinRank
		func(c *Config) { c.MaxRank = c.InitialRank - 1 }, // InitialRank above MaxRank, within Dim
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.Alpha = 1.5 },
		func(c *Config) { c.AdaptInterval = 0 },
		func(c *Config) { c.CMax = 0 },
		func(c *Config) { c.GradWindow = 0 },
	}
	for i, mutate := range mutations {
		c := testConfig()
		mutate(&c)
		if err := c.validate(); err == nil {
			t.Fatalf("mutation %d: expected validation error", i)
		}
	}
	if _, err := newAdapter(Config{}); err == nil {
		t.Fatal("NewAdapter must reject zero config")
	}
}

func TestAdapterStartsAtZeroDelta(t *testing.T) {
	a := mustNewAdapter(testConfig())
	dst := make([]float64, 8)
	delta(a, 5, dst)
	for _, v := range dst {
		if v != 0 {
			t.Fatal("fresh adapter must have zero delta")
		}
	}
	if a.ActiveCount() != 0 || has(a, 5) {
		t.Fatal("fresh adapter must be empty")
	}
}

func TestTrainAllocatesAndMoves(t *testing.T) {
	a := mustNewAdapter(testConfig())
	grad := []float64{1, 0, 0, 0, 0, 0, 0, 0}
	// Several steps so both A (from B≠0 after the first B update... actually
	// with A=0,B=0 the first step moves nothing: dA = grad·Bᵀ = 0, dB = A·grad = 0.
	// Seed A by allocation then give B a kick through repeated training once a
	// row exists. To break symmetry the adapter relies on allocation plus the
	// next gradient — verify the well-known LoRA cold-start by priming A.
	a.train([]int32{3}, grad, 0.1)
	if !has(a, 3) {
		t.Fatal("training must allocate a row")
	}
	// Prime: with both factors zero the product stays zero (standard LoRA
	// cold start when both are zero-initialized). Kick A manually as the
	// paper's trainer does via its initializer, then train.
	liveRow(a, 3)[0] = 0.5
	before := make([]float64, 8)
	delta(a, 3, before)
	a.train([]int32{3}, grad, 0.1)
	after := make([]float64, 8)
	delta(a, 3, after)
	moved := false
	for i := range after {
		if after[i] != before[i] {
			moved = true
		}
	}
	if !moved {
		t.Fatal("training with non-zero A must move ∆W")
	}
}

func TestTrainEmptyAndWrongDim(t *testing.T) {
	a := mustNewAdapter(testConfig())
	a.train(nil, make([]float64, 8), 0.1) // no-op
	if a.ActiveCount() != 0 {
		t.Fatal("empty train must not allocate")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong grad dim must panic")
		}
	}()
	a.train([]int32{1}, make([]float64, 3), 0.1)
}

func TestCapacityLimit(t *testing.T) {
	cfg := testConfig()
	cfg.CMax = 5
	a := mustNewAdapter(cfg)
	grad := make([]float64, 8)
	grad[0] = 1
	for id := int32(0); id < 20; id++ {
		a.train([]int32{id}, grad, 0.01)
	}
	if a.ActiveCount() > 5 {
		t.Fatalf("active %d exceeds CMax 5", a.ActiveCount())
	}
}

func TestResizeGrowPreservesDelta(t *testing.T) {
	a := mustNewAdapter(testConfig())
	seedAdapter(a, 10)
	before := snapshotDeltas(a, 10)
	a.Resize(7)
	if a.Rank() != 7 {
		t.Fatalf("rank %d, want 7", a.Rank())
	}
	after := snapshotDeltas(a, 10)
	for id, b := range before {
		for i := range b {
			if math.Abs(b[i]-after[id][i]) > 1e-12 {
				t.Fatal("growing rank must preserve ∆W exactly")
			}
		}
	}
}

func TestResizeShrinkApproximatesDelta(t *testing.T) {
	a := mustNewAdapter(testConfig())
	seedAdapter(a, 20)
	before := snapshotDeltas(a, 20)
	a.Resize(2)
	if a.Rank() != 2 {
		t.Fatalf("rank %d, want 2", a.Rank())
	}
	after := snapshotDeltas(a, 20)
	// The deltas were built from rank-4 factors; rank-2 is an approximation.
	// Verify the relative error is bounded (Eckart–Young gives the best
	// rank-2 error; we just require it's not catastrophic).
	var num, den float64
	for id, b := range before {
		for i := range b {
			d := b[i] - after[id][i]
			num += d * d
			den += b[i] * b[i]
		}
	}
	if den > 0 && num/den > 0.9 {
		t.Fatalf("shrink destroyed delta: relative sq error %v", num/den)
	}
}

func TestResizeClampsAndNoops(t *testing.T) {
	a := mustNewAdapter(testConfig())
	a.Resize(a.Rank()) // no-op
	a.Resize(100)      // clamps to MaxRank (=Dim=8)
	if a.Rank() != 8 {
		t.Fatalf("rank %d, want clamp to 8", a.Rank())
	}
	a.Resize(0) // clamps to MinRank
	if a.Rank() != 1 {
		t.Fatalf("rank %d, want clamp to 1", a.Rank())
	}
	// Shrinking with no rows resets B shape cleanly.
	b := mustNewAdapter(testConfig())
	b.Resize(2)
	if b.Rank() != 2 || b.copyB().Rows != 2 {
		t.Fatal("empty shrink must resize B")
	}
}

func TestAdaptRankTracksGradientStructure(t *testing.T) {
	// Feed rank-1 gradients: adaptation should shrink toward MinRank.
	cfg := testConfig()
	cfg.InitialRank = 6
	cfg.AdaptInterval = 40
	a := mustNewAdapter(cfg)
	dir := []float64{1, 2, -1, 0.5, 0, 0, 0, 0}
	rng := tensor.NewRNG(3)
	for i := 0; i < 200; i++ {
		g := make([]float64, 8)
		scale := rng.NormFloat64()
		for j := range g {
			g[j] = scale * dir[j]
		}
		a.train([]int32{int32(i % 30)}, g, 0.01)
	}
	if a.Adaptations() == 0 {
		t.Fatal("adaptation never ran")
	}
	if a.Rank() > 2 {
		t.Fatalf("rank-1 gradients should shrink rank, got %d", a.Rank())
	}
}

func TestAdaptRankGrowsForRichGradients(t *testing.T) {
	cfg := testConfig()
	cfg.InitialRank = 1
	cfg.Alpha = 0.95
	cfg.AdaptInterval = 40
	a := mustNewAdapter(cfg)
	rng := tensor.NewRNG(5)
	for i := 0; i < 200; i++ {
		g := make([]float64, 8)
		for j := range g {
			g[j] = rng.NormFloat64() // full-rank gradient stream
		}
		a.train([]int32{int32(i % 30)}, g, 0.01)
	}
	if a.Rank() <= 1 {
		t.Fatalf("full-rank gradients should grow rank, got %d", a.Rank())
	}
}

func TestPruningEvictsInactive(t *testing.T) {
	cfg := testConfig()
	cfg.AdaptInterval = 100
	cfg.PruneThresh = 2
	a := mustNewAdapter(cfg)
	grad := make([]float64, 8)
	grad[0] = 0.1
	// id 1 updated often; ids 50..58 once each.
	for i := 0; i < 90; i++ {
		a.train([]int32{1}, grad, 0.01)
	}
	for id := int32(50); id < 59; id++ {
		a.train([]int32{id}, grad, 0.01)
	}
	// 99 iterations so far; next one triggers adapt at 100.
	a.train([]int32{1}, grad, 0.01)
	if a.Adaptations() != 1 {
		t.Fatalf("adaptations %d, want 1", a.Adaptations())
	}
	if has(a, 50) || has(a, 58) {
		t.Fatal("singly-updated ids must be pruned with PruneThresh=2")
	}
	if !has(a, 1) {
		t.Fatal("hot id must survive pruning")
	}
	if a.pruned == 0 {
		t.Fatal("pruned counter must advance")
	}
}

func TestSupportExportApplyRoundTrip(t *testing.T) {
	a := mustNewAdapter(testConfig())
	seedAdapter(a, 5)
	if a.rows.dirty == 0 {
		t.Fatal("training must record support")
	}
	export := a.exportSupport()
	if len(export) != a.rows.dirty {
		t.Fatalf("export %d != support %d", len(export), a.rows.dirty)
	}
	b := mustNewAdapter(testConfig())
	b.applyState(TableState{B: a.copyB()})
	b.applyState(TableState{Rows: export})
	for _, u := range export {
		da := make([]float64, 8)
		db := make([]float64, 8)
		delta(a, u.ID, da)
		delta(b, u.ID, db)
		for i := range da {
			if math.Abs(da[i]-db[i]) > 1e-12 {
				t.Fatal("applied rows must reproduce sender deltas")
			}
		}
	}
	// Applying must not pollute receiver support.
	if b.rows.dirty != 0 {
		t.Fatal("applied rows must not enter support")
	}
	a.resetSupport()
	if a.rows.dirty != 0 {
		t.Fatal("resetSupport failed")
	}
}

func TestApplyRowsRankMismatch(t *testing.T) {
	a := mustNewAdapter(testConfig())                                                   // rank 4
	a.applyState(TableState{Rows: []RowUpdate{{ID: 1, Row: []float64{1, 2}}}})          // shorter
	a.applyState(TableState{Rows: []RowUpdate{{ID: 2, Row: []float64{1, 2, 3, 4, 5}}}}) // longer
	if len(liveRow(a, 1)) != 4 || len(liveRow(a, 2)) != 4 {
		t.Fatal("applied rows must be adapted to local rank")
	}
}

func TestSetBRankMismatchAndDimPanic(t *testing.T) {
	a := mustNewAdapter(testConfig()) // rank 4
	filled := func(rows int, v float64) *tensor.Matrix {
		m := tensor.NewMatrix(rows, 8)
		for i := range m.Data {
			m.Data[i] = v
		}
		return m
	}
	a.applyState(TableState{B: filled(4, 1)})
	a.applyState(TableState{B: filled(2, 2)}) // shorter: the rows it lacks are zeroed
	b := a.copyB()
	if b.Rows != 4 {
		t.Fatal("an applied B must keep local rank")
	}
	for i, v := range b.Data {
		if want := float64(2 * btoi(i < 2*8)); v != want {
			t.Fatalf("B[%d] = %v after installing a 2-row B over a 4-row one, want %v", i, v, want)
		}
	}
	// The shape check is Set.applyState's, before any adapter is touched.
	s := newTestSet(t)
	defer func() {
		if recover() == nil {
			t.Fatal("a B with the wrong dim must panic")
		}
	}()
	s.applyState([]TableState{{B: tensor.NewMatrix(4, 5)}, {}, {}})
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestReset(t *testing.T) {
	a := mustNewAdapter(testConfig())
	seedAdapter(a, 5)
	a.reset()
	if a.ActiveCount() != 0 || a.rows.dirty != 0 {
		t.Fatal("reset must clear rows and support")
	}
	dst := make([]float64, 8)
	delta(a, 0, dst)
	for _, v := range dst {
		if v != 0 {
			t.Fatal("reset must zero deltas")
		}
	}
}

func TestSizeBytes(t *testing.T) {
	a := mustNewAdapter(testConfig()) // rank 4, dim 8
	base := a.SizeBytes()
	if base != 4*8*8 { // B only
		t.Fatalf("empty adapter bytes %d", base)
	}
	seedAdapter(a, 10)
	if a.SizeBytes() != int64(10*4*8+4*8*8) {
		t.Fatalf("bytes %d", a.SizeBytes())
	}
}

// --- Set tests ---

func newTestSet(t *testing.T) *Set {
	t.Helper()
	rng := tensor.NewRNG(7)
	base := emt.NewGroup(3, 100, 8, rng)
	return mustNewSet(base, testConfig())
}

func TestSetLookupColdEqualsBase(t *testing.T) {
	s := newTestSet(t)
	dst := make([]float64, 8)
	s.Lookup(0, []int32{5}, dst)
	baseRow := s.Base.Tables[0].PeekRow(5)
	for i := range dst {
		if dst[i] != baseRow[i] {
			t.Fatal("cold lookup must equal base")
		}
	}
}

func TestSetLookupHotAddsDelta(t *testing.T) {
	s := newTestSet(t)
	a := s.Adapters[0]
	a.applyState(TableState{Rows: []RowUpdate{{ID: 5, Row: []float64{1, 0, 0, 0}}}})
	b := tensor.NewMatrix(4, 8)
	b.Data[0] = 0.5
	a.applyState(TableState{B: b})
	dst := make([]float64, 8)
	s.Lookup(0, []int32{5}, dst)
	baseRow := s.Base.Tables[0].PeekRow(5)
	if math.Abs(dst[0]-(baseRow[0]+0.5)) > 1e-12 {
		t.Fatalf("hot lookup must add ∆W: got %v want %v", dst[0], baseRow[0]+0.5)
	}
	for i := 1; i < 8; i++ {
		if dst[i] != baseRow[i] {
			t.Fatal("other coords unchanged")
		}
	}
}

// Set.Lookup is on every served request: a pooled lookup over hot and cold
// ids allocates nothing.
func TestSetLookupNoAlloc(t *testing.T) {
	s := newTestSet(t)
	g := []float64{0.3, -0.1, 0.2, 0, 0.5, -0.4, 0.1, 0.05}
	for i := 0; i < 50; i++ {
		s.ApplyGrad(0, []int32{int32(i % 7), 11}, g, 0.05)
	}
	ids := []int32{3, 11, 42, 6} // 42 is cold
	if !has(s.Adapters[0], 3) || has(s.Adapters[0], 42) {
		t.Fatal("fixture: want hot and cold ids in one lookup")
	}
	dst := make([]float64, 8)
	if n := testing.AllocsPerRun(100, func() { s.Lookup(0, ids, dst) }); n != 0 {
		t.Fatalf("Set.Lookup allocates %v times per call, want 0", n)
	}
}

func TestSetApplyGradFreezesBase(t *testing.T) {
	s := newTestSet(t)
	baseBefore := append([]float64(nil), s.Base.Tables[1].PeekRow(3)...)
	grad := make([]float64, 8)
	grad[0] = 1
	s.ApplyGrad(1, []int32{3}, grad, 0.1)
	baseAfter := s.Base.Tables[1].PeekRow(3)
	for i := range baseBefore {
		if baseBefore[i] != baseAfter[i] {
			t.Fatal("base weights must stay frozen under LoRA training")
		}
	}
	if s.Base.DirtyRatio() != 0 {
		t.Fatal("LoRA training must not dirty the base")
	}
	if !has(s.Adapters[1], 3) {
		t.Fatal("gradient must land in the adapter")
	}
}

func TestSetOverheadRatio(t *testing.T) {
	s := newTestSet(t)
	// Base: 3 tables × 100×8×8 bytes. Empty adapters: 3 × B(4×8×8).
	ratio := s.OverheadRatio()
	want := float64(3*4*8*8) / float64(3*100*8*8)
	if math.Abs(ratio-want) > 1e-12 {
		t.Fatalf("overhead %v, want %v", ratio, want)
	}
}

func TestSetStateRoundTrip(t *testing.T) {
	s1 := newTestSet(t)
	grad := make([]float64, 8)
	grad[2] = 1
	s1.ApplyGrad(0, []int32{1, 2}, grad, 0.05)
	s1.ApplyGrad(2, []int32{9}, grad, 0.05)
	// Make deltas non-zero (B starts zero → kick a row and retrain).
	liveRow(s1.Adapters[0], 1)[0] = 0.3
	s1.ApplyGrad(0, []int32{1}, grad, 0.05)

	states := s1.exportState()
	if PayloadBytes(states) <= 0 {
		t.Fatal("payload must be positive")
	}
	s2 := newTestSet(t)
	s2.applyState(states)
	for _, table := range []int{0, 2} {
		for _, u := range states[table].Rows {
			d1 := make([]float64, 8)
			d2 := make([]float64, 8)
			delta(s1.Adapters[table], u.ID, d1)
			delta(s2.Adapters[table], u.ID, d2)
			for i := range d1 {
				if math.Abs(d1[i]-d2[i]) > 1e-12 {
					t.Fatal("state sync must reproduce deltas")
				}
			}
		}
	}
	s1.resetSupports()
	for _, a := range s1.Adapters {
		if a.rows.dirty != 0 {
			t.Fatal("resetSupports failed")
		}
	}
}

// TestSetStateRoundTripConcurrentLookup runs an exportState/applyState (and
// Publish) round-trip in a loop while reader goroutines hammer Lookup and
// EffectiveRow on the same Set, under the discipline core.System follows:
// readers hold a read lock, the installs hold it for write. Under `go test
// -race` this proves the install writes nothing outside that lock, and
// afterwards the round-trip must still reproduce the exported deltas exactly.
func TestSetStateRoundTripConcurrentLookup(t *testing.T) {
	src := newTestSet(t)
	grad := make([]float64, 8)
	grad[1] = 1
	for id := int32(0); id < 40; id++ {
		src.ApplyGrad(int(id)%3, []int32{id % 20}, grad, 0.05)
	}
	states := src.exportState()
	epochs := []int64{1, 2, 3}

	dst := newTestSet(t)
	var params sync.RWMutex
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			out := make([]float64, 8)
			row := make([]float64, 8)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				table := (g + i) % 3
				id := int32(i % 20)
				params.RLock()
				dst.Lookup(table, []int32{id}, out)
				dst.EffectiveRow(table, id, row)
				has(dst.Adapters[table], id)
				params.RUnlock()
				_ = dst.Epoch() // atomic: needs no lock
			}
		}(g)
	}
	// Writer: repeated apply/publish of the same immutable snapshot while
	// the readers run. Every iteration rewrites every installed row and B, so
	// any reader access outside the lock is a race-detector hit.
	for i := 0; i < 200; i++ {
		params.Lock()
		dst.applyState(states)
		dst.Publish(states, epochs[i%len(epochs)])
		params.Unlock()
	}
	close(stop)
	readers.Wait()

	if got := dst.Epoch(); got != epochs[(200-1)%len(epochs)] {
		t.Fatalf("published epoch = %d, want %d", got, epochs[(200-1)%len(epochs)])
	}
	// Round-trip fidelity: the concurrent episode must not have perturbed
	// the installed state.
	d1 := make([]float64, 8)
	d2 := make([]float64, 8)
	for table := range states {
		for _, u := range states[table].Rows {
			delta(src.Adapters[table], u.ID, d1)
			delta(dst.Adapters[table], u.ID, d2)
			for i := range d1 {
				if math.Abs(d1[i]-d2[i]) > 1e-12 {
					t.Fatalf("table %d id %d: delta diverged after concurrent round-trip", table, u.ID)
				}
			}
		}
	}
}

// TestSetSnapshotClearsSupports verifies the pipelined snapshot contract:
// Snapshot exports the current supports and clears them, so training that
// lands after the snapshot feeds the next sync epoch instead of being lost.
func TestSetSnapshotClearsSupports(t *testing.T) {
	s := newTestSet(t)
	grad := make([]float64, 8)
	grad[0] = 1
	s.ApplyGrad(0, []int32{4}, grad, 0.05)
	snap := s.Snapshot()
	if len(snap[0].Rows) != 1 || snap[0].Rows[0].ID != 4 {
		t.Fatalf("snapshot missing trained row: %+v", snap[0].Rows)
	}
	for _, a := range s.Adapters {
		if a.rows.dirty != 0 {
			t.Fatal("Snapshot must clear supports")
		}
	}
	// Post-snapshot training lands in the next epoch's support.
	s.ApplyGrad(0, []int32{9}, grad, 0.05)
	next := s.Snapshot()
	if len(next[0].Rows) != 1 || next[0].Rows[0].ID != 9 {
		t.Fatalf("post-snapshot training must feed the next epoch: %+v", next[0].Rows)
	}
}

// Property: for arbitrary training sequences the adapter invariants hold —
// ActiveCount ≤ CMax, rank within [MinRank, MaxRank], SizeBytes consistent.
func TestPropertyAdapterInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		cfg := testConfig()
		cfg.CMax = 20
		cfg.AdaptInterval = 16
		a := mustNewAdapter(cfg)
		for i := 0; i < 120; i++ {
			n := 1 + rng.Intn(3)
			ids := make([]int32, n)
			for j := range ids {
				ids[j] = int32(rng.Intn(60))
			}
			g := make([]float64, 8)
			for j := range g {
				g[j] = rng.NormFloat64()
			}
			a.train(ids, g, 0.01)
			if a.ActiveCount() > cfg.CMax {
				return false
			}
			if a.Rank() < cfg.MinRank || a.Rank() > cfg.MaxRank {
				return false
			}
			if a.SizeBytes() != int64(a.ActiveCount())*int64(a.Rank())*8+int64(a.Rank())*8*8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// liveRow returns id's A row in the current store (not a copy); id must be
// resident.
func liveRow(a *Adapter, id int32) []float64 {
	rs := &a.rows
	return rs.row(rs.find(id))
}

// seedAdapter populates n rows with non-trivial factors by direct injection
// plus training steps, giving a realistic non-zero ∆W.
func seedAdapter(a *Adapter, n int) {
	rng := tensor.NewRNG(777)
	for id := int32(0); id < int32(n); id++ {
		row := make([]float64, a.Rank())
		for k := range row {
			row[k] = rng.NormFloat64() * 0.2
		}
		a.applyState(TableState{Rows: []RowUpdate{{ID: id, Row: row}}})
		rs := &a.rows
		rs.markDirty(rs.find(id))
	}
	b := tensor.NewMatrix(a.Rank(), a.cfg.Dim)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64() * 0.2
	}
	a.applyState(TableState{B: b})
}

func snapshotDeltas(a *Adapter, n int) map[int32][]float64 {
	out := make(map[int32][]float64)
	for id := int32(0); id < int32(n); id++ {
		d := make([]float64, a.cfg.Dim)
		delta(a, id, d)
		out[id] = d
	}
	return out
}
