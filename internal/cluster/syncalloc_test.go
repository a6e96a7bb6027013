package cluster

import (
	"testing"

	"liveupdate/internal/core"
)

// A warm SyncNow on a 4-replica fleet allocates nothing, whatever the number
// of rows it moves, with delta billing off or on: every replica snapshots
// into slabs it keeps from the previous sync, the SyncGroup merges (and,
// with delta on, strips factors) into buffers it keeps, the cluster reuses
// its ranked view of the snapshots, and every merged row is written in place
// into a slot its replica already holds.
func TestSyncNowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, delta := range []bool{false, true} {
		var counts []float64
		for _, rows := range []int{10, 1000} {
			p := testProfile(t)
			p.TableSize = 1024
			opts := core.DefaultOptions(p, 42)
			opts.LoRA.AdaptInterval = 1 << 30 // no pruning: the trained rows stay
			c, err := New(Config{Base: opts, Replicas: 4, DeltaSync: delta})
			if err != nil {
				t.Fatal(err)
			}
			ids, g := make([]int32, 1), make([]float64, p.EmbeddingDim)
			train := func() {
				for r := range 4 {
					sys := c.Replica(r)
					g[r%len(g)]++ // every replica moves its rows differently
					sys.Lock()
					for table := range p.NumTables {
						for id := range int32(rows) {
							ids[0] = id
							sys.LoRA.ApplyGrad(table, ids, g, 1e-3)
						}
					}
					sys.Unlock()
				}
			}
			trainAndSync := func() {
				train()
				if _, err := c.SyncNow(); err != nil {
					t.Fatal(err)
				}
			}
			trainAndSync()
			trainAndSync()
			n := testing.AllocsPerRun(5, trainAndSync)
			counts = append(counts, n)
			if n != 0 {
				t.Fatalf("delta %v, %d rows per table: a warm SyncNow allocates %v times, want 0", delta, rows, n)
			}
		}
		t.Logf("delta %v: allocations per warm SyncNow at 10 and 1000 rows per table: %v", delta, counts)
	}
}
