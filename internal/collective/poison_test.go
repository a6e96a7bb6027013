package collective

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"liveupdate/internal/lora"
	"liveupdate/internal/tensor"
)

// TestSyncGroupBuffersPoisonedAfterPublish is the collective half of the
// aliasing fence for the buffers a sync reuses. After every sync of
// hashSyncSchedule is published and hashed, poisonGroup overwrites, each to
// its full capacity, the group's sort buffer, merged rows and merged tables,
// the delta flags and stripped payloads, and every snapshot the sync merged:
// coefficients and B values become NaN, ids, ranks and shapes garbage, and
// every ship flag true. For every topology × delta × compression level the
// twelve syncs' MergeStats, bills, generations and merged rows, and every
// set's final rows and B, must equal an un-poisoned twin's: no sync may read
// what an earlier one left in a reused buffer, and no set may keep a
// reference into one.
func TestSyncGroupBuffersPoisonedAfterPublish(t *testing.T) {
	for _, kind := range Topologies() {
		for _, delta := range []bool{false, true} {
			for _, z := range []int{0, 1, 6} {
				name := fmt.Sprintf("%s delta=%v z=%d", kind, delta, z)
				clean, dirty := fnv.New64a(), fnv.New64a()
				setsClean, err := hashSyncSchedule(clean, kind, delta, z, freshBuffers)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				setsDirty, err := hashSyncSchedule(dirty, kind, delta, z, poisonGroup)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if clean.Sum64() != dirty.Sum64() {
					t.Fatalf("%s: a poisoned buffer changed a sync's outcome", name)
				}
				for r := range setsClean {
					if !tablesEqual(setsClean[r].ExportFull(), setsDirty[r].ExportFull()) {
						t.Fatalf("%s: set %d holds a reference into a poisoned buffer", name, r)
					}
				}
			}
		}
	}
}

// TestQuietSyncAfterPoison: after a delta sync whose buffers are then
// poisoned, a quiet sync — every rank resubmits the published factors and no
// rows — ships no factor, so with compression on neither stripped payload
// carries one. A ship flag left over from the poison would put one back into
// the bill, which must equal an un-poisoned twin's.
func TestQuietSyncAfterPoison(t *testing.T) {
	for _, z := range []int{0, 1, 6} {
		var bills [2]GroupStats
		for i, poison := range []bool{false, true} {
			sg, err := newBillGroup(TopologyTree, true, z)
			if err != nil {
				t.Fatal(err)
			}
			states := rankedExports(t, 4)
			merged, _, _, err := sg.SyncRanked(nil, states)
			if err != nil {
				t.Fatal(err)
			}
			quiet := make([]RankedState, len(states))
			for r, st := range states {
				tables := make([]lora.TableState, len(merged))
				for tb, mt := range merged {
					tables[tb] = lora.TableState{Rank: mt.Rank, B: mt.B.Clone()}
				}
				quiet[r] = RankedState{Rank: st.Rank, Tables: tables}
			}
			if poison {
				poisonGroup(sg, states)
			} else {
				freshBuffers(sg, states)
			}
			if _, _, _, err := sg.SyncRanked(nil, quiet); err != nil {
				t.Fatal(err)
			}
			bills[i] = sg.GroupStats()
		}
		if bills[0] != bills[1] {
			t.Fatalf("z=%d: bill after a poisoned sync %+v, un-poisoned twin %+v", z, bills[1], bills[0])
		}
	}
}

// freshBuffers drops everything sg reuses, so its next sync allocates anew
// as if no sync had run before it: the twin a poisoned group is held to.
func freshBuffers(sg *SyncGroup, _ []RankedState) {
	sg.merged, sg.scratch = mergeBuf{}, deltaBuf{}
}

// poisonGroup overwrites everything sg reuses from sync to sync, and every
// snapshot in states, with values no sync may see.
func poisonGroup(sg *SyncGroup, states []RankedState) {
	bad := &tensor.Matrix{Rows: -1, Cols: -1}
	for _, st := range states {
		poisonTables(st.Tables)
	}
	m, sc := &sg.merged, &sg.scratch
	sorted := m.sorted[:cap(m.sorted)]
	for i := range sorted {
		sorted[i] = rankedRow{rank: -1, id: -1, src: -1, row: -1}
	}
	rows := m.rows[:cap(m.rows)]
	for i := range rows {
		poisonFloats(rows[i].Row)
		rows[i] = lora.RowUpdate{ID: -1}
	}
	for _, ts := range [][]lora.TableState{m.tables, sc.pacing, sc.pub} {
		ts = ts[:cap(ts)]
		for i := range ts {
			ts[i] = lora.TableState{Rank: -1, B: bad}
		}
	}
	for _, flags := range [][]bool{sc.shipB, sc.pubShip} {
		flags = flags[:cap(flags)]
		for i := range flags {
			flags[i] = true
		}
	}
}

// poisonTables overwrites a state's coefficients and B values with NaN and
// its ids, ranks and B shapes with garbage.
func poisonTables(tables []lora.TableState) {
	for t := range tables {
		ts := &tables[t]
		for i := range ts.Rows {
			poisonFloats(ts.Rows[i].Row)
			ts.Rows[i] = lora.RowUpdate{ID: -1}
		}
		if ts.B != nil {
			poisonFloats(ts.B.Data)
			*ts.B = tensor.Matrix{Rows: -1, Cols: -1}
		}
		*ts = lora.TableState{Rank: -1}
	}
}

func poisonFloats(xs []float64) {
	for i := range xs {
		xs[i] = math.NaN()
	}
}
