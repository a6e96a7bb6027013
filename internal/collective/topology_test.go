package collective

import (
	"fmt"
	"math"
	"testing"

	"liveupdate/internal/lora"
	"liveupdate/internal/simnet"
	"liveupdate/internal/tensor"
)

func TestParseTopology(t *testing.T) {
	for _, kind := range append([]Kind{""}, Topologies()...) {
		topo, err := ParseTopology(kind)
		if err != nil {
			t.Fatalf("ParseTopology(%q): %v", kind, err)
		}
		want := kind
		if want == "" {
			want = TopologyFlat
		}
		if topo.Kind() != want {
			t.Fatalf("ParseTopology(%q).Kind() = %q", kind, topo.Kind())
		}
	}
	if _, err := ParseTopology("hypercube"); err == nil {
		t.Fatal("unknown topology must error")
	}
}

// TestTopologyCostShapes pins the scaling laws behind the TestSyncScale*
// cells: tree rounds grow like ⌈log2 n⌉, ring rounds like n-1, and the
// hierarchical wire bills are (n-1)·hop against flat's n·(2^⌈log2 n⌉-1)·hop.
func TestTopologyCostShapes(t *testing.T) {
	for _, topo := range []Topology{Flat{}, ringTopology{}, treeTopology{}} {
		if topo.Rounds(1) != 0 || topo.GatherBytes(1, 1000, 1000) != 0 ||
			topo.BroadcastBytes(1, 1000) != 0 ||
			topo.GatherTime(1, 1000, 1000, 1e9, 1e-6) != 0 ||
			topo.BroadcastTime(1, 1000, 1e9, 1e-6) != 0 {
			t.Fatalf("%s: single member must be free", topo.Kind())
		}
	}
	if got := (treeTopology{}).Rounds(256); got != 8 {
		t.Fatalf("Tree.Rounds(256) = %d, want 8", got)
	}
	if got := (ringTopology{}).Rounds(256); got != 255 {
		t.Fatalf("Ring.Rounds(256) = %d, want 255", got)
	}
	// Hop payload is max(perRank, merged): both hierarchical gathers ship
	// (n-1) hops of it.
	const per, merged = 1000, 4000
	if got := (treeTopology{}).GatherBytes(8, per, merged); got != 7*merged {
		t.Fatalf("Tree.GatherBytes = %d, want %d", got, 7*merged)
	}
	if got := (ringTopology{}).GatherBytes(8, per, merged); got != 7*merged {
		t.Fatalf("Ring.GatherBytes = %d, want %d", got, 7*merged)
	}
	// Flat's gather is oblivious to the merged size and strictly larger.
	if flat := (Flat{}).GatherBytes(8, per, merged); flat != 8*7*per || flat <= 7*per {
		t.Fatalf("Flat.GatherBytes = %d", flat)
	}
	// Latency shape: tree pays rounds hops, ring pays n-1 hops.
	const bw, lat = 1e15, 1e-3 // latency-dominated
	if got := (treeTopology{}).GatherTime(256, per, merged, bw, lat); math.Abs(got-8*lat) > 1e-9 {
		t.Fatalf("Tree latency %v, want ~%v", got, 8*lat)
	}
	if got := (ringTopology{}).GatherTime(256, per, merged, bw, lat); math.Abs(got-255*lat) > 1e-9 {
		t.Fatalf("Ring latency %v, want ~%v", got, 255*lat)
	}
}

// rankedExports trains a small fleet with per-rank disjoint-and-overlapping
// ids and returns the exported ranked states (replicas untouched afterward,
// so the same states can feed many groups).
func rankedExports(t *testing.T, n int) []RankedState {
	t.Helper()
	replicas := makeReplicas(n)
	for i, r := range replicas {
		trainOn(r, 0, int32(3+2*i), uint64(100+i)) // distinct ids
		trainOn(r, 1, 7, uint64(200+i))            // everyone conflicts on (1, 7)
	}
	states := make([]RankedState, n)
	for i, r := range replicas {
		states[i] = RankedState{Rank: i, Tables: r.Snapshot()}
	}
	return states
}

func tablesEqual(a, b []lora.TableState) bool {
	if len(a) != len(b) {
		return false
	}
	for t := range a {
		if a[t].Rank != b[t].Rank || len(a[t].Rows) != len(b[t].Rows) {
			return false
		}
		if (a[t].B == nil) != (b[t].B == nil) {
			return false
		}
		if a[t].B != nil {
			if a[t].B.Rows != b[t].B.Rows || a[t].B.Cols != b[t].B.Cols {
				return false
			}
			for i, v := range a[t].B.Data {
				if math.Float64bits(v) != math.Float64bits(b[t].B.Data[i]) {
					return false
				}
			}
		}
		for i, u := range a[t].Rows {
			if u.ID != b[t].Rows[i].ID || len(u.Row) != len(b[t].Rows[i].Row) {
				return false
			}
			for j, v := range u.Row {
				if math.Float64bits(v) != math.Float64bits(b[t].Rows[i].Row[j]) {
					return false
				}
			}
		}
	}
	return true
}

// TestTopologyMergeEquivalence is the tentpole invariant: for every topology
// and for the delta and compressed variants, the merged state is bit-identical
// to flat full-sync — and bit-identical across member permutations. Topology,
// delta, and compression change only the bill, never the state.
func TestTopologyMergeEquivalence(t *testing.T) {
	states := rankedExports(t, 4)
	perms := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}, {1, 3, 0, 2}}

	type variant struct {
		name     string
		kind     Kind
		delta    bool
		compress int
	}
	variants := []variant{
		{name: "flat", kind: TopologyFlat},
		{name: "ring", kind: TopologyRing},
		{name: "tree", kind: TopologyTree},
		{name: "tree+delta", kind: TopologyTree, delta: true},
		{name: "tree+delta+z6", kind: TopologyTree, delta: true, compress: 6},
	}

	var want []lora.TableState
	for _, v := range variants {
		for _, perm := range perms {
			topo, err := ParseTopology(v.kind)
			if err != nil {
				t.Fatal(err)
			}
			// Fresh group per run: delta tracking is stateful.
			sg, err := NewSyncGroupWith(GroupConfig{
				BandwidthBps:  simnet.Gbps100,
				LatencySec:    1e-6,
				Topology:      topo,
				Delta:         v.delta,
				CompressLevel: v.compress,
			})
			if err != nil {
				t.Fatal(err)
			}
			permuted := make([]RankedState, len(perm))
			for i, p := range perm {
				permuted[i] = states[p]
			}
			merged, _, _, err := sg.SyncRanked(simnet.NewClock(), permuted)
			if err != nil {
				t.Fatalf("%s perm %v: %v", v.name, perm, err)
			}
			if want == nil {
				want = merged
				continue
			}
			if !tablesEqual(merged, want) {
				t.Fatalf("%s perm %v: merged state differs from flat full-sync", v.name, perm)
			}
		}
	}
}

// TestTopologyByteAccounting reconciles every topology's WireBytes against
// the cost model applied to the known payload sizes: gather on the pacing
// rank's payload plus broadcast of the merged state.
func TestTopologyByteAccounting(t *testing.T) {
	states := rankedExports(t, 4)
	var maxFull int64
	for _, st := range states {
		if p := lora.PayloadBytes(st.Tables); p > maxFull {
			maxFull = p
		}
	}
	for _, kind := range Topologies() {
		topo, err := ParseTopology(kind)
		if err != nil {
			t.Fatal(err)
		}
		sg, err := NewSyncGroupWith(GroupConfig{
			BandwidthBps: simnet.Gbps100,
			LatencySec:   1e-6,
			Topology:     topo,
		})
		if err != nil {
			t.Fatal(err)
		}
		merged, _, _, err := sg.SyncRanked(simnet.NewClock(), states)
		if err != nil {
			t.Fatal(err)
		}
		mergedFull := lora.PayloadBytes(merged)
		gs := sg.GroupStats()
		want := topo.GatherBytes(4, maxFull, mergedFull) + topo.BroadcastBytes(4, mergedFull)
		if gs.WireBytes != want {
			t.Fatalf("%s: WireBytes = %d, want gather %d + broadcast %d",
				kind, gs.WireBytes, topo.GatherBytes(4, maxFull, mergedFull), topo.BroadcastBytes(4, mergedFull))
		}
		if gs.ComputeSeconds <= 0 || gs.PublishSeconds <= 0 {
			t.Fatalf("%s: cost split missing: %+v", kind, gs)
		}
		if gs.DeltaSavedBytes != 0 || gs.CompressSavedBytes != 0 || gs.CompressSeconds != 0 {
			t.Fatalf("%s: delta/compression accounting must be zero when disabled: %+v", kind, gs)
		}
	}
}

// TestDeltaAccountingIdentity checks the books balance: with no stale peers,
// the delta group's wire bytes plus its reported savings equal the full-sync
// bill for the identical schedule, and a quiet sync (nothing changed since
// the last publish) costs zero wire.
func TestDeltaAccountingIdentity(t *testing.T) {
	states := rankedExports(t, 4)
	newGroup := func(delta bool) *SyncGroup {
		sg, err := NewSyncGroupWith(GroupConfig{
			BandwidthBps: simnet.Gbps100,
			LatencySec:   1e-6,
			Topology:     treeTopology{},
			Delta:        delta,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sg
	}
	full, delta := newGroup(false), newGroup(true)
	mergedFull, _, _, err := full.SyncRanked(simnet.NewClock(), states)
	if err != nil {
		t.Fatal(err)
	}
	mergedDelta, _, _, err := delta.SyncRanked(simnet.NewClock(), states)
	if err != nil {
		t.Fatal(err)
	}
	if !tablesEqual(mergedFull, mergedDelta) {
		t.Fatal("delta sync changed the merged state")
	}
	fg, dg := full.GroupStats(), delta.GroupStats()
	if dg.WireBytes+dg.DeltaSavedBytes != fg.WireBytes {
		t.Fatalf("books don't balance: delta wire %d + saved %d != full wire %d",
			dg.WireBytes, dg.DeltaSavedBytes, fg.WireBytes)
	}
	// First sync: no factor has been published yet, so everything ships and
	// nothing is saved.
	if dg.DeltaSavedBytes != 0 {
		t.Fatalf("first sync has no published baseline; saved %d", dg.DeltaSavedBytes)
	}

	// Quiet sync: every rank resubmits exactly the published state (factor
	// unchanged, no modified rows). The delta bill is zero; the savings are
	// the entire full-sync bill.
	quiet := make([]RankedState, len(states))
	for i, st := range states {
		tables := make([]lora.TableState, len(mergedDelta))
		for t2, mt := range mergedDelta {
			tables[t2] = lora.TableState{Rank: mt.Rank, B: mt.B}
		}
		quiet[i] = RankedState{Rank: st.Rank, Tables: tables}
	}
	before := delta.GroupStats()
	if _, _, _, err := delta.SyncRanked(simnet.NewClock(), quiet); err != nil {
		t.Fatal(err)
	}
	after := delta.GroupStats()
	if got := after.WireBytes - before.WireBytes; got != 0 {
		t.Fatalf("quiet delta sync moved %d wire bytes, want 0", got)
	}
	if after.DeltaSavedBytes <= before.DeltaSavedBytes {
		t.Fatal("quiet sync must report the avoided full-sync bytes as savings")
	}
}

// TestDeltaBackfillStaleRank: a rank that misses a sync must be billed a
// point-to-point backfill of exactly the rows published while it was away.
func TestDeltaBackfillStaleRank(t *testing.T) {
	const dim, rank = 8, 4
	sharedB := tensor.NewMatrix(rank, dim)
	for i := range sharedB.Data {
		sharedB.Data[i] = 0.01 * float64(i+1)
	}
	mkState := func(r int, ids ...int32) RankedState {
		rows := make([]lora.RowUpdate, len(ids))
		for i, id := range ids {
			row := make([]float64, rank)
			for j := range row {
				row[j] = float64(r+1) + float64(id)/10 + float64(j)/100
			}
			rows[i] = lora.RowUpdate{ID: id, Row: row}
		}
		return RankedState{Rank: r, Tables: []lora.TableState{{Rank: rank, B: sharedB, Rows: rows}}}
	}
	newDelta := func() *SyncGroup {
		sg, err := NewSyncGroupWith(GroupConfig{
			BandwidthBps: simnet.Gbps100,
			LatencySec:   1e-6,
			Topology:     treeTopology{},
			Delta:        true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sg
	}
	// Group X sees all three ranks every sync; in group Y rank 2 misses
	// sync 2 and returns for sync 3, whose publish does not re-cover the
	// rows it missed.
	x, y := newDelta(), newDelta()
	sync := func(sg *SyncGroup, states ...RankedState) GroupStats {
		t.Helper()
		if _, _, _, err := sg.SyncRanked(simnet.NewClock(), states); err != nil {
			t.Fatal(err)
		}
		return sg.GroupStats()
	}
	s1 := []RankedState{mkState(0, 1, 2), mkState(1, 3, 4), mkState(2, 5, 6)}
	sync(x, s1...)
	sync(y, s1...)
	s2 := []RankedState{mkState(0, 10, 11), mkState(1), mkState(2)}
	sync(x, s2...)
	sync(y, s2[0], s2[1]) // rank 2 absent
	s3 := []RankedState{mkState(0, 20), mkState(1), mkState(2)}
	xBefore, yBefore := x.GroupStats(), y.GroupStats()
	xAfter := sync(x, s3...)
	yAfter := sync(y, s3...)

	xWire := xAfter.WireBytes - xBefore.WireBytes
	yWire := yAfter.WireBytes - yBefore.WireBytes
	// Rank 2's acked generation trails by one; rows 10 and 11 (4 bytes id +
	// rank·8 coefficients each) were published meanwhile and are not in
	// sync 3's publish, so they ship point-to-point.
	wantBackfill := int64(2 * (4 + 8*rank))
	if yWire-xWire != wantBackfill {
		t.Fatalf("stale-rank sync moved %d extra wire bytes, want backfill %d (x %d, y %d)",
			yWire-xWire, wantBackfill, xWire, yWire)
	}
	if yPub, xPub := yAfter.PublishSeconds-yBefore.PublishSeconds, xAfter.PublishSeconds-xBefore.PublishSeconds; yPub <= xPub {
		t.Fatal("backfill must bill point-to-point publish time")
	}
}

// TestCompressionAccounting: compression converts wire bytes into cpu
// seconds; the books must balance against the uncompressed bill and the
// merged state must not change.
func TestCompressionAccounting(t *testing.T) {
	states := rankedExports(t, 4)
	newGroup := func(level int) *SyncGroup {
		sg, err := NewSyncGroupWith(GroupConfig{
			BandwidthBps:  simnet.Gbps100,
			LatencySec:    1e-6,
			Topology:      treeTopology{},
			CompressLevel: level,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sg
	}
	plain, z := newGroup(0), newGroup(6)
	mergedPlain, _, _, err := plain.SyncRanked(simnet.NewClock(), states)
	if err != nil {
		t.Fatal(err)
	}
	mergedZ, _, _, err := z.SyncRanked(simnet.NewClock(), states)
	if err != nil {
		t.Fatal(err)
	}
	if !tablesEqual(mergedPlain, mergedZ) {
		t.Fatal("compression changed the merged state")
	}
	pg, zg := plain.GroupStats(), z.GroupStats()
	if zg.WireBytes+zg.CompressSavedBytes != pg.WireBytes {
		t.Fatalf("books don't balance: compressed wire %d + saved %d != plain wire %d",
			zg.WireBytes, zg.CompressSavedBytes, pg.WireBytes)
	}
	if zg.CompressSeconds <= 0 {
		t.Fatal("compression must bill cpu seconds")
	}
	if zg.Seconds() != zg.ComputeSeconds+zg.PublishSeconds+zg.CompressSeconds {
		t.Fatalf("Seconds() must include the compression bill: %+v", zg)
	}
	if pg.CompressSeconds != 0 || pg.CompressSavedBytes != 0 {
		t.Fatalf("uncompressed group must not bill compression: %+v", pg)
	}
}

func TestNewSyncGroupWithValidation(t *testing.T) {
	for _, level := range []int{-1, 10} {
		if _, err := NewSyncGroupWith(GroupConfig{BandwidthBps: 1e9, CompressLevel: level}); err == nil {
			t.Fatalf("compression level %d must be rejected", level)
		}
	}
	sg, err := NewSyncGroupWith(GroupConfig{BandwidthBps: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if sg.Topology().Kind() != TopologyFlat {
		t.Fatalf("nil topology must default to flat, got %q", sg.Topology().Kind())
	}
}

// TestTopologyGuards pins the contract violations that must panic rather
// than silently produce a nonsense bill.
func TestTopologyGuards(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s must panic", name)
			}
		}()
		f()
	}
	for _, topo := range []Topology{Flat{}, ringTopology{}, treeTopology{}} {
		kind := topo.Kind()
		mustPanic(fmt.Sprintf("%s negative payload", kind), func() { topo.GatherBytes(4, -1, 0) })
		mustPanic(fmt.Sprintf("%s zero bandwidth", kind), func() { topo.GatherTime(4, 1000, 1000, 0, 1e-6) })
	}
}
