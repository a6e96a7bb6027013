package cluster

import (
	"math"
	"testing"
	"time"

	"liveupdate/internal/collective"
	"liveupdate/internal/trace"
)

// driveWithChurn runs one fixed serve-and-churn schedule — kill, replace,
// scale mid-stream, with a SyncNow at every 50 ms mark of the fleet clock —
// and ends on explicit merges. The schedule depends only on the seed, never
// on the sync pricing knobs, so two clusters differing only in those knobs
// must end bit-identical.
func driveWithChurn(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.MustNewGenerator(testProfile(t), 61)
	var synced int64
	serve := func(n int) {
		t.Helper()
		serveSyncingAtMarks(t, c, gen, n, 50*time.Millisecond, &synced)
	}
	serve(200)
	if err := c.FailReplica(1); err != nil {
		t.Fatal(err)
	}
	serve(200)
	if _, err := c.ReplaceReplica(1); err != nil {
		t.Fatal(err)
	}
	serve(200)
	if err := c.Scale(4); err != nil {
		t.Fatal(err)
	}
	serve(200)
	// End on explicit merges with no serving in between: the trailing syncs
	// are quiet (no row or factor changed since the last publish), which is
	// where delta billing departs from full — full sync re-ships the shared
	// factors, delta references them.
	for i := 0; i < 3; i++ {
		if _, err := c.SyncNow(); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestDeltaSyncConvergesAfterChurn is the cluster-level half of the delta
// invariant: with members failing, being replaced, and joining mid-schedule,
// a delta-billed fleet must converge to exactly the state of a full-sync
// fleet — delta changes the bill, never the published state — and its wire
// ledger plus its reported savings must reproduce the full-sync bill.
func TestDeltaSyncConvergesAfterChurn(t *testing.T) {
	mkConfig := func(delta bool) Config {
		cfg := testConfig(t, 3)
		// Keep every LoRA row resident so post-churn consistency is
		// structural (see TestClusterMembershipUnderServing).
		cfg.Base.LoRA.PruneThresh = 0
		cfg.Topology = collective.TopologyTree
		cfg.DeltaSync = delta
		return cfg
	}
	full := driveWithChurn(t, mkConfig(false))
	delta := driveWithChurn(t, mkConfig(true))

	if !full.ReplicasConsistent(50) || !delta.ReplicasConsistent(50) {
		t.Fatal("fleets must be internally consistent after the final sync")
	}

	// Cross-cluster bit-identity: replica 0 of each fleet holds the same
	// published state, probed over a grid of effective rows.
	p := testProfile(t)
	ref := make([]float64, p.EmbeddingDim)
	probe := make([]float64, p.EmbeddingDim)
	for table := 0; table < p.NumTables; table++ {
		for id := int32(0); id < 50; id++ {
			full.Replica(0).LoRA.EffectiveRow(table, id, ref)
			delta.Replica(0).LoRA.EffectiveRow(table, id, probe)
			for d := range ref {
				if math.Float64bits(ref[d]) != math.Float64bits(probe[d]) {
					t.Fatalf("state diverged at table %d id %d dim %d: full %v delta %v",
						table, id, d, ref[d], probe[d])
				}
			}
		}
	}

	fs, ds := full.Stats(), delta.Stats()
	if fs.Syncs != ds.Syncs {
		t.Fatalf("schedules diverged: full %d syncs, delta %d", fs.Syncs, ds.Syncs)
	}
	if ds.SyncTopology != string(collective.TopologyTree) {
		t.Fatalf("topology not surfaced: %q", ds.SyncTopology)
	}
	if ds.SyncDeltaSavedBytes <= 0 {
		t.Fatal("delta sync over a churning schedule must save wire bytes")
	}
	if ds.SyncWireBytes >= fs.SyncWireBytes {
		t.Fatalf("delta wire %d must undercut full wire %d", ds.SyncWireBytes, fs.SyncWireBytes)
	}
	// The ledger balances: what delta shipped plus what it avoided is
	// exactly the full-sync bill for the identical sync sequence.
	if ds.SyncWireBytes+ds.SyncDeltaSavedBytes != fs.SyncWireBytes {
		t.Fatalf("books don't balance: delta wire %d + saved %d != full wire %d",
			ds.SyncWireBytes, ds.SyncDeltaSavedBytes, fs.SyncWireBytes)
	}
	if fs.SyncDeltaSavedBytes != 0 || fs.SyncCompressSavedBytes != 0 {
		t.Fatalf("full sync must not report savings: %+v", fs)
	}
}

// TestClusterConfigSyncKnobValidation pins the Config-level validation of
// the fleet-scale sync knobs.
func TestClusterConfigSyncKnobValidation(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.Topology = collective.Kind("torus")
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown topology must be rejected")
	}
	cfg = testConfig(t, 2)
	cfg.Compression = 11
	if _, err := New(cfg); err == nil {
		t.Fatal("compression level 11 must be rejected")
	}
	cfg = testConfig(t, 2)
	cfg.Topology = collective.TopologyRing
	cfg.Compression = 9
	cfg.DeltaSync = true
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().SyncTopology; got != string(collective.TopologyRing) {
		t.Fatalf("Stats().SyncTopology = %q, want ring", got)
	}
}
