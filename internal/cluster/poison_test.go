package cluster

import (
	"fmt"
	"math"
	"testing"

	"liveupdate/internal/collective"
	"liveupdate/internal/core"
	"liveupdate/internal/lora"
	"liveupdate/internal/tensor"
	"liveupdate/internal/trace"
)

// TestSyncBuffersPoisonedAfterPublish is the cluster's aliasing fence for
// the buffers a sync reuses: every member's snapshot slabs and the cluster's
// ranked view of them, which the SyncGroup's merged rows point into. As soon
// as each SyncNow returns (the publish is its last step) poisonSync
// overwrites all of them — every coefficient and B value with NaN, every row
// id, rank and B shape with garbage — so anything that still read a snapshot
// or a merged row past the publish would see it. The group's own merged
// tables, sort buffer and delta scratch are poisoned by collective's
// TestSyncGroupBuffersPoisonedAfterPublish. Over 12 SyncNow calls with one
// join in between, with delta billing off and on, every sync's MergeStats,
// the group's running bill and the sync clock, and at the end every
// replica's effective rows, exported rows and B, rank and support must
// equal those of an un-poisoned twin fleet.
func TestSyncBuffersPoisonedAfterPublish(t *testing.T) {
	for _, delta := range []bool{false, true} {
		t.Run(fmt.Sprintf("delta=%v", delta), func(t *testing.T) {
			want := poisonSchedule(t, delta, false)
			got := poisonSchedule(t, delta, true)
			rows, conflicts := 0, 0
			for _, s := range want.syncs {
				rows, conflicts = rows+s.merge.RowsMerged, conflicts+s.merge.Conflicts
			}
			if rows == 0 || conflicts == 0 || want.syncs[len(want.syncs)-1].merge.Participants != 4 {
				t.Fatalf("the schedule must merge conflicting rows and end on 4 replicas: %d rows, %d conflicts, %+v",
					rows, conflicts, want.syncs[len(want.syncs)-1].merge)
			}
			for i := range want.syncs {
				if got.syncs[i] != want.syncs[i] {
					t.Fatalf("sync %d: %+v, un-poisoned twin %+v", i, got.syncs[i], want.syncs[i])
				}
			}
			if len(got.state) != len(want.state) {
				t.Fatalf("replica state has %d words, un-poisoned twin %d", len(got.state), len(want.state))
			}
			for i := range want.state {
				if got.state[i] != want.state[i] {
					t.Fatalf("replica state word %d is %#x, un-poisoned twin %#x", i, got.state[i], want.state[i])
				}
			}
		})
	}
}

// syncOutcome is what one SyncNow reports and bills.
type syncOutcome struct {
	merge collective.MergeStats
	bill  collective.GroupStats
	clock float64
}

type poisonOutcome struct {
	syncs []syncOutcome
	state []uint64 // every replica's rows, B, rank and support, as bits
}

// poisonSchedule serves a 3-replica fleet between 12 SyncNow calls, scaling
// to 4 replicas (a catch-up from a donor) before the seventh, and poisons
// every sync's reused buffers after its publish when poisoned is set.
func poisonSchedule(t *testing.T, delta, poisoned bool) poisonOutcome {
	t.Helper()
	cfg := testConfig(t, 3)
	cfg.DeltaSync = delta
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.MustNewGenerator(testProfile(t), 29)
	var out poisonOutcome
	for s := 0; s < 12; s++ {
		if s == 6 {
			if err := c.Scale(4); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 60; i++ {
			if _, err := c.Serve(gen.Next()); err != nil {
				t.Fatal(err)
			}
		}
		ms, err := c.SyncNow()
		if err != nil {
			t.Fatal(err)
		}
		if poisoned {
			poisonSync(c.states)
		}
		out.syncs = append(out.syncs, syncOutcome{ms, c.sync.GroupStats(), c.syncClock.Now()})
	}
	for _, sys := range c.Members().ActiveSystems() {
		out.state = appendReplicaBits(out.state, sys)
	}
	return out
}

// appendReplicaBits appends one replica's effective rows and adapter rank
// per table, then its full export (every row and B) and its support (a
// Snapshot), as bits.
func appendReplicaBits(out []uint64, sys *core.System) []uint64 {
	p := sys.Profile()
	row := make([]float64, p.EmbeddingDim)
	sys.Lock()
	defer sys.Unlock()
	for table := range p.NumTables {
		out = append(out, uint64(sys.LoRA.Adapters[table].Rank()))
		for id := range int32(p.TableSize) {
			sys.LoRA.EffectiveRow(table, id, row)
			for _, v := range row {
				out = append(out, math.Float64bits(v))
			}
		}
	}
	for _, state := range [][]lora.TableState{sys.LoRA.ExportFull(), sys.LoRA.Snapshot()} {
		for _, ts := range state {
			out = append(out, uint64(ts.Rank), uint64(len(ts.Rows)))
			for _, u := range ts.Rows {
				out = append(out, uint64(u.ID))
				for _, v := range u.Row {
					out = append(out, math.Float64bits(v))
				}
			}
			out = append(out, uint64(ts.B.Rows), uint64(ts.B.Cols))
			for _, v := range ts.B.Data {
				out = append(out, math.Float64bits(v))
			}
		}
	}
	return out
}

// poisonSync overwrites every snapshot a sync merged, and so every merged
// row that points into one, with values no later read may see.
func poisonSync(states []collective.RankedState) {
	nan := func(xs []float64) {
		for i := range xs {
			xs[i] = math.NaN()
		}
	}
	for s := range states {
		for t := range states[s].Tables {
			ts := &states[s].Tables[t]
			for i := range ts.Rows {
				nan(ts.Rows[i].Row)
				ts.Rows[i] = lora.RowUpdate{ID: -1}
			}
			nan(ts.B.Data)
			*ts.B = tensor.Matrix{Rows: -1, Cols: -1}
			*ts = lora.TableState{Rank: -1}
		}
		states[s] = collective.RankedState{Rank: -1}
	}
}
