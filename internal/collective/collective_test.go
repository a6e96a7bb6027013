package collective

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"liveupdate/internal/emt"
	"liveupdate/internal/lora"
	"liveupdate/internal/simnet"
	"liveupdate/internal/tensor"
)

func TestAllGatherRounds(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 8: 3, 9: 4, 16: 4, 48: 6}
	for n, want := range cases {
		if got := TopologyFlat.rounds(n); got != want {
			t.Fatalf("rounds(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestAllGatherTimeLogScaling(t *testing.T) {
	// Latency-dominated regime: time grows like log2(N) (paper Fig 19).
	const bw = 1e12
	const lat = 0.01
	t2, _ := TopologyFlat.Seconds(2, 1000, 0, bw, lat)
	t16, _ := TopologyFlat.Seconds(16, 1000, 0, bw, lat)
	ratio := t16 / t2
	if math.Abs(ratio-4) > 0.1 { // log2(16)/log2(2) = 4
		t.Fatalf("latency scaling ratio %v, want ~4", ratio)
	}
	if g, b := TopologyFlat.Seconds(1, 1000, 0, bw, lat); g != 0 || b != 0 {
		t.Fatal("single node needs no communication")
	}
}

func TestAllGatherTimeBytesScaling(t *testing.T) {
	// Bandwidth-dominated: total bytes moved per node ≈ (n-1)·payload, so
	// time ≈ (n-1)·payload/bw.
	const bw = 1e6
	got, _ := TopologyFlat.Seconds(8, 1000, 0, bw, 0)
	want := float64(7*1000) / bw
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("bytes scaling time %v, want %v", got, want)
	}
}

func TestBroadcastTime(t *testing.T) {
	if _, b := TopologyFlat.Seconds(1, 0, 1000, 1e6, 0.01); b != 0 {
		t.Fatal("single-node broadcast is free")
	}
	_, got := TopologyFlat.Seconds(8, 0, 1000, 1e6, 0.01)
	want := 3 * (0.01 + 1000/1e6)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("broadcast time %v, want %v", got, want)
	}
}

// testGroup is a flat-topology group on 100 GbE links with 1 ms latency,
// full payloads, and no compression.
func testGroup(t *testing.T) *SyncGroup {
	t.Helper()
	sg, err := NewSyncGroupWith(GroupConfig{BandwidthBps: simnet.Gbps100, LatencySec: simnet.LinkLatencySec})
	if err != nil {
		t.Fatal(err)
	}
	return sg
}

// syncReplicas is one stop-the-world sync over a fixed replica slice: every
// replica is snapshotted with its index as its rank, SyncRanked merges and
// prices, and the merged state is published to every replica.
func syncReplicas(sg *SyncGroup, c *simnet.Clock, replicas []*lora.Set) (MergeStats, error) {
	states := make([]RankedState, len(replicas))
	for i, r := range replicas {
		states[i] = RankedState{Rank: i, Tables: r.Snapshot()}
	}
	merged, stats, epoch, err := sg.SyncRanked(c, states)
	if err != nil {
		return stats, err
	}
	for _, r := range replicas {
		r.Publish(merged, epoch)
	}
	return stats, nil
}

func makeReplicas(n int) []*lora.Set {
	rng := tensor.NewRNG(5)
	replicas := make([]*lora.Set, n)
	for i := range replicas {
		base := emt.NewGroup(2, 50, 8, tensor.NewRNG(7)) // identical bases
		cfg := lora.DefaultConfig(50, 8)
		cfg.Seed = uint64(i)
		set, err := lora.NewSet(base, cfg)
		if err != nil {
			panic(err)
		}
		replicas[i] = set
	}
	_ = rng
	return replicas
}

func trainOn(s *lora.Set, table int, id int32, seed uint64) {
	rng := tensor.NewRNG(seed)
	g := make([]float64, 8)
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	for k := 0; k < 5; k++ {
		s.ApplyGrad(table, []int32{id}, g, 0.05)
	}
}

func TestPriorityMergeMaxRankWins(t *testing.T) {
	replicas := makeReplicas(3)
	// Ranks 0 and 2 both modify (table 0, id 7); rank 2 must win.
	trainOn(replicas[0], 0, 7, 100)
	trainOn(replicas[2], 0, 7, 200)
	trainOn(replicas[1], 1, 3, 300)

	states := [][]lora.TableState{
		replicas[0].Snapshot(),
		replicas[1].Snapshot(),
		replicas[2].Snapshot(),
	}
	merged, stats, err := PriorityMerge(states)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Participants != 3 {
		t.Fatalf("participants %d", stats.Participants)
	}
	if stats.Conflicts != 1 {
		t.Fatalf("conflicts %d, want 1", stats.Conflicts)
	}
	if stats.RowsMerged != 2 {
		t.Fatalf("rows merged %d, want 2", stats.RowsMerged)
	}
	// The winning row for id 7 must be rank 2's.
	var got lora.RowUpdate
	found := false
	for _, u := range merged[0].Rows {
		if u.ID == 7 {
			got = u
			found = true
		}
	}
	if !found {
		t.Fatal("merged state missing id 7")
	}
	want := states[2][0].Rows
	var wantRow lora.RowUpdate
	for _, u := range want {
		if u.ID == 7 {
			wantRow = u
		}
	}
	for i := range got.Row {
		if got.Row[i] != wantRow.Row[i] {
			t.Fatal("priority merge must take the max-rank row")
		}
	}
}

// TestPriorityMergeOrderInvariant is the regression test for conflict
// resolution depending on input position: the merged TableState (rows AND
// the adopted B factor) must be bit-identical for any permutation of the
// replica states, because priority is the rank id, not the slice index.
func TestPriorityMergeOrderInvariant(t *testing.T) {
	replicas := makeReplicas(3)
	// Conflicts on (0,7) between ranks 0 and 2, on (1,3) between ranks 1 and
	// 2, plus rank-unique rows.
	trainOn(replicas[0], 0, 7, 100)
	trainOn(replicas[2], 0, 7, 200)
	trainOn(replicas[1], 1, 3, 300)
	trainOn(replicas[2], 1, 3, 400)
	trainOn(replicas[0], 0, 11, 500)
	trainOn(replicas[1], 0, 12, 600)

	ranked := make([]RankedState, 3)
	for r := range ranked {
		ranked[r] = RankedState{Rank: r, Tables: replicas[r].Snapshot()}
	}
	ref, refStats, err := new(mergeBuf).merge(append([]RankedState(nil), ranked...))
	if err != nil {
		t.Fatal(err)
	}
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	var reused mergeBuf // every permutation merges into the same buffers
	for _, perm := range perms {
		in := make([]RankedState, len(perm))
		for i, p := range perm {
			in[i] = ranked[p]
		}
		got, stats, err := reused.merge(in)
		if err != nil {
			t.Fatal(err)
		}
		if stats != refStats {
			t.Fatalf("perm %v: stats %+v, want %+v", perm, stats, refStats)
		}
		if len(got) != len(ref) {
			t.Fatalf("perm %v: %d tables, want %d", perm, len(got), len(ref))
		}
		for ti := range ref {
			if len(got[ti].Rows) != len(ref[ti].Rows) {
				t.Fatalf("perm %v table %d: %d rows, want %d", perm, ti, len(got[ti].Rows), len(ref[ti].Rows))
			}
			for ri, u := range ref[ti].Rows {
				g := got[ti].Rows[ri]
				if g.ID != u.ID {
					t.Fatalf("perm %v table %d row %d: id %d, want %d", perm, ti, ri, g.ID, u.ID)
				}
				for k := range u.Row {
					if g.Row[k] != u.Row[k] {
						t.Fatalf("perm %v table %d id %d: winner differs by input order", perm, ti, u.ID)
					}
				}
			}
			if got[ti].Rank != ref[ti].Rank {
				t.Fatalf("perm %v table %d: B rank %d, want %d", perm, ti, got[ti].Rank, ref[ti].Rank)
			}
			for i := range ref[ti].B.Data {
				if got[ti].B.Data[i] != ref[ti].B.Data[i] {
					t.Fatalf("perm %v table %d: adopted B differs by input order", perm, ti)
				}
			}
		}
	}
	// PriorityMerge (index = rank) must agree with the ranked form.
	states := make([][]lora.TableState, 3)
	for r := range states {
		states[r] = ranked[r].Tables
	}
	viaIndex, idxStats, err := PriorityMerge(states)
	if err != nil {
		t.Fatal(err)
	}
	if idxStats != refStats || len(viaIndex) != len(ref) {
		t.Fatalf("PriorityMerge disagrees with the ranked merge: %+v vs %+v", idxStats, refStats)
	}
	// Duplicate rank ids are ambiguous priorities and must be rejected.
	if _, _, err := new(mergeBuf).merge([]RankedState{
		{Rank: 1, Tables: ranked[0].Tables},
		{Rank: 1, Tables: ranked[1].Tables},
	}); err == nil {
		t.Fatal("duplicate ranks must error")
	}
}

// TestSyncGroupByteAccounting is the regression test for the payload/wire
// accounting mismatch: MergeStats.PayloadBytes counts each rank's export
// exactly once per sync, GroupStats.PayloadBytes accumulates exactly those
// per-sync totals, and GroupStats.WireBytes bills the simulated collective
// (recursive-doubling AllGather on the max per-rank payload plus the
// broadcast of the merged state).
func TestSyncGroupByteAccounting(t *testing.T) {
	// twins trains exactly as replicas does; its snapshots give the expected
	// payloads, since a snapshot clears the supports the sync exports.
	replicas, twins := makeReplicas(4), makeReplicas(4)
	for _, rs := range [][]*lora.Set{replicas, twins} {
		trainOn(rs[0], 0, 5, 1)
		trainOn(rs[1], 0, 9, 2)
		trainOn(rs[2], 1, 3, 3)
	}

	states := make([][]lora.TableState, len(twins))
	var wantPayload, maxPayload int64
	for i, r := range twins {
		states[i] = r.Snapshot()
		p := lora.PayloadBytes(states[i])
		wantPayload += p
		if p > maxPayload {
			maxPayload = p
		}
	}
	merged, stats, err := PriorityMerge(states)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PayloadBytes != wantPayload {
		t.Fatalf("MergeStats.PayloadBytes = %d, want Σ per-rank exports %d", stats.PayloadBytes, wantPayload)
	}

	sg := testGroup(t)
	clock := simnet.NewClock()
	if _, err := syncReplicas(sg, clock, replicas); err != nil {
		t.Fatal(err)
	}
	gs := sg.GroupStats()
	if gs.Syncs != 1 || gs.PayloadBytes != wantPayload {
		t.Fatalf("GroupStats = (%d, %d), want (1, %d): cumulative bytes must be per-sync payload totals", gs.Syncs, gs.PayloadBytes, wantPayload)
	}
	mergedBytes := lora.PayloadBytes(merged)
	wantGather, wantBroadcast := 4*3*maxPayload, 3*mergedBytes // two doubling rounds; n−1 sends
	if gs.WireBytes != wantGather+wantBroadcast || TopologyFlat.wireBytes(4, maxPayload, mergedBytes) != gs.WireBytes {
		t.Fatalf("WireBytes = %d, want %d (allgather %d + broadcast %d)",
			gs.WireBytes, wantGather+wantBroadcast, wantGather, wantBroadcast)
	}
	if gs.WireBytes <= gs.PayloadBytes {
		t.Fatal("simulated wire traffic must exceed the application payload for 4 replicas")
	}
	if gs.ComputeSeconds <= 0 || gs.PublishSeconds <= 0 {
		t.Fatalf("cost split missing: %+v", gs)
	}
	if clock.Now() != gs.Seconds() {
		t.Fatalf("clock charged %v, GroupStats total %v", clock.Now(), gs.Seconds())
	}
	// A second sync accumulates on top (supports were reset, so only B moves).
	if _, err := syncReplicas(sg, simnet.NewClock(), replicas); err != nil {
		t.Fatal(err)
	}
	if got := sg.GroupStats(); got.Syncs != 2 || got.PayloadBytes <= gs.PayloadBytes {
		t.Fatalf("second sync must accumulate: %+v after %+v", got, gs)
	}
}

func TestAllGatherAndBroadcastBytes(t *testing.T) {
	if TopologyFlat.wireBytes(1, 1000, 1000) != 0 {
		t.Fatal("single node moves nothing")
	}
	// n=4: 2 rounds, per-node blocks 1000 then 2000 → 4·3000 total; an
	// empty merged state broadcasts nothing.
	if got := TopologyFlat.wireBytes(4, 1000, 0); got != 12000 {
		t.Fatalf("flat gather wireBytes(4, 1000, 0) = %d, want 12000", got)
	}
	// An empty per-rank payload gathers nothing: 7 sends of the merged state.
	if got := TopologyFlat.wireBytes(8, 0, 1000); got != 7000 {
		t.Fatalf("flat broadcast wireBytes(8, 0, 1000) = %d, want 7000", got)
	}
}

func TestPriorityMergeErrors(t *testing.T) {
	if _, _, err := PriorityMerge(nil); err == nil {
		t.Fatal("empty merge must error")
	}
	replicas := makeReplicas(2)
	bad := [][]lora.TableState{
		replicas[0].Snapshot(),
		replicas[1].Snapshot()[:1], // table count mismatch
	}
	if _, _, err := PriorityMerge(bad); err == nil {
		t.Fatal("table mismatch must error")
	}
}

func TestSyncGroupConvergence(t *testing.T) {
	// After a sync, all replicas must produce identical effective embeddings
	// for every id any rank touched — the replica-consistency requirement of
	// paper §II-C.
	replicas := makeReplicas(4)
	trainOn(replicas[0], 0, 5, 1)
	trainOn(replicas[1], 0, 5, 2) // conflict with rank 0
	trainOn(replicas[2], 1, 9, 3)
	trainOn(replicas[3], 0, 30, 4)

	sg := testGroup(t)
	c := simnet.NewClock()
	stats, err := syncReplicas(sg, c, replicas)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Conflicts != 1 {
		t.Fatalf("conflicts %d, want 1", stats.Conflicts)
	}
	if c.Now() <= 0 {
		t.Fatal("sync must consume virtual time")
	}
	ids := []struct {
		table int
		id    int32
	}{{0, 5}, {1, 9}, {0, 30}}
	for _, q := range ids {
		ref := make([]float64, 8)
		replicas[0].EffectiveRow(q.table, q.id, ref)
		for r := 1; r < 4; r++ {
			got := make([]float64, 8)
			replicas[r].EffectiveRow(q.table, q.id, got)
			for i := range ref {
				if math.Abs(got[i]-ref[i]) > 1e-12 {
					t.Fatalf("replica %d diverges on table %d id %d", r, q.table, q.id)
				}
			}
		}
	}
	// Supports must be cleared.
	for _, r := range replicas {
		for _, st := range r.Snapshot() {
			if len(st.Rows) != 0 {
				t.Fatal("sync must reset supports")
			}
		}
	}
	if gs := sg.GroupStats(); gs.Syncs != 1 || gs.PayloadBytes <= 0 || gs.Seconds() <= 0 {
		t.Fatalf("stats %+v", gs)
	}
}

func TestSyncGroupIdempotentWhenQuiet(t *testing.T) {
	replicas := makeReplicas(2)
	sg := testGroup(t)
	c := simnet.NewClock()
	if _, err := syncReplicas(sg, c, replicas); err != nil {
		t.Fatal(err)
	}
	// Second sync with no training in between must merge zero rows.
	stats, err := syncReplicas(sg, c, replicas)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RowsMerged != 0 || stats.Conflicts != 0 {
		t.Fatalf("quiet sync merged %d rows", stats.RowsMerged)
	}
}

func TestSyncIntervalAccuracyTradeoffSetup(t *testing.T) {
	// Longer sync intervals accumulate more divergence (paper Fig 9's
	// mechanism): verify replicas diverge before sync and agree after.
	replicas := makeReplicas(2)
	trainOn(replicas[0], 0, 5, 11)
	a := make([]float64, 8)
	b := make([]float64, 8)
	replicas[0].EffectiveRow(0, 5, a)
	replicas[1].EffectiveRow(0, 5, b)
	diverged := false
	for i := range a {
		if a[i] != b[i] {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("replicas should diverge before sync")
	}
	if _, err := syncReplicas(testGroup(t), nil, replicas); err != nil { // nil clock allowed
		t.Fatal(err)
	}
	replicas[0].EffectiveRow(0, 5, a)
	replicas[1].EffectiveRow(0, 5, b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("replicas must agree after sync")
		}
	}
}

// Long-run version of the consistency test: replicas with a coordinated
// (fixed) rank train for many steps on disjoint shards, including pruning
// cycles, then a single sync must make every touched row identical across
// replicas (the examples/cluster scenario).
func TestSyncGroupConsistencyAfterLongRun(t *testing.T) {
	const nodes = 3
	replicas := make([]*lora.Set, nodes)
	for i := range replicas {
		base := emt.NewGroup(2, 200, 8, tensor.NewRNG(31)) // identical bases
		cfg := lora.DefaultConfig(200, 8)
		cfg.Seed = uint64(i)
		cfg.DisableRankAdapt = true // rank coordinated out of band
		cfg.AdaptInterval = 50      // pruning still cycles
		set, err := lora.NewSet(base, cfg)
		if err != nil {
			t.Fatal(err)
		}
		replicas[i] = set
	}
	rng := tensor.NewRNG(77)
	g := make([]float64, 8)
	for step := 0; step < 600; step++ {
		for i := range g {
			g[i] = rng.NormFloat64()
		}
		table := step % 2
		id := int32(rng.Intn(200))
		replicas[step%nodes].ApplyGrad(table, []int32{id}, g, 0.05)
	}
	if _, err := syncReplicas(testGroup(t), simnet.NewClock(), replicas); err != nil {
		t.Fatal(err)
	}
	ref := make([]float64, 8)
	got := make([]float64, 8)
	for table := 0; table < 2; table++ {
		for id := int32(0); id < 200; id++ {
			replicas[0].EffectiveRow(table, id, ref)
			for r := 1; r < nodes; r++ {
				replicas[r].EffectiveRow(table, id, got)
				for i := range ref {
					if math.Abs(got[i]-ref[i]) > 1e-12 {
						t.Fatalf("replica %d diverges on table %d id %d after long run", r, table, id)
					}
				}
			}
		}
	}
}

// TestPriorityMergeAllocs bounds the merge's allocations. PriorityMerge
// makes four, whatever the table count: the ranked view of its input, one
// sort buffer presized to the largest table, one slab for every table's
// merged rows, and the merged table slice — no per-row map entries. A
// SyncGroup's merge reuses all but the first, so a warm one makes none.
// Under the race detector the merges still run and are checked, but the
// allocation counts, which its instrumentation inflates, are not.
func TestPriorityMergeAllocs(t *testing.T) {
	const ranks, tables, rows, rank = 4, 26, 300, 4
	rng := tensor.NewRNG(3)
	states := make([][]lora.TableState, ranks)
	for r := range states {
		states[r] = make([]lora.TableState, tables)
		for tb := range states[r] {
			ts := lora.TableState{Rank: rank, B: tensor.NewMatrix(rank, 8)}
			seen := map[int32]bool{}
			for len(ts.Rows) < rows-tb {
				id := int32(rng.Intn(2 * rows)) // ranks overlap on about half their ids
				if seen[id] {
					continue
				}
				seen[id] = true
				ts.Rows = append(ts.Rows, lora.RowUpdate{ID: id, Row: make([]float64, rank)})
			}
			states[r][tb] = ts
		}
	}
	var stats MergeStats
	allocs := testing.AllocsPerRun(10, func() {
		var err error
		if _, stats, err = PriorityMerge(states); err != nil {
			t.Fatal(err)
		}
	})
	if stats.Conflicts == 0 || stats.RowsMerged == 0 {
		t.Fatalf("fixture must merge overlapping rows: %+v", stats)
	}
	if !raceEnabled && allocs > 4 {
		t.Fatalf("PriorityMerge allocates %v times for %d tables; want ≤ 4", allocs, tables)
	}
	ranked := make([]RankedState, ranks)
	for r := range ranked {
		ranked[r] = RankedState{Rank: r, Tables: states[r]}
	}
	var m mergeBuf
	if _, _, err := m.merge(ranked); err != nil {
		t.Fatal(err)
	}
	warm := testing.AllocsPerRun(10, func() {
		if _, warmStats, err := m.merge(ranked); err != nil || warmStats != stats {
			t.Fatalf("a warm merge gives %+v, %v; PriorityMerge %+v", warmStats, err, stats)
		}
	})
	if !raceEnabled && warm != 0 {
		t.Fatalf("a merge into grown buffers allocates %v times; want 0", warm)
	}
}

// fingerprintB is FNV-1a written out by hand: it must give hash/fnv's bits
// over the same bytes — the dimensions as two little-endian uint32s, then
// every coefficient's float64 bits.
func TestFingerprintBMatchesFNV(t *testing.T) {
	rng := tensor.NewRNG(9)
	dense := tensor.NewMatrix(4, 8)
	for i := range dense.Data {
		dense.Data[i] = rng.NormFloat64()
	}
	odd := &tensor.Matrix{Rows: 2, Cols: 2, Data: []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), 1e-300}}
	for _, m := range []*tensor.Matrix{tensor.NewMatrix(0, 3), dense, odd} {
		h := fnv.New64a()
		var buf [8]byte
		binary.LittleEndian.PutUint32(buf[:4], uint32(m.Rows))
		binary.LittleEndian.PutUint32(buf[4:], uint32(m.Cols))
		h.Write(buf[:])
		for _, v := range m.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		if got, want := fingerprintB(m), h.Sum64(); got != want {
			t.Fatalf("%d×%d: fingerprint %#x, hash/fnv %#x", m.Rows, m.Cols, got, want)
		}
	}
	if fingerprintB(nil) != 0 {
		t.Fatal("a nil factor must fingerprint to 0")
	}
}
