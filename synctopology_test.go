package liveupdate

import (
	"math"
	"testing"
)

// TestWithSyncTopologyPublicAPI drives the same fleet under every topology
// through the public surface: the serving schedule is topology-invariant,
// only the sync bill changes, and the chosen topology plus its wire
// accounting surface through Stats.
func TestWithSyncTopologyPublicAPI(t *testing.T) {
	p := smallProfile(t)
	if _, err := New(WithProfile(p), WithSyncTopology("mesh")); err == nil {
		t.Fatal("unknown topology must be rejected at construction")
	}
	if _, err := New(WithProfile(p), WithCompression(10)); err == nil {
		t.Fatal("compression level 10 must be rejected at construction")
	}
	if got := SyncTopologies(); len(got) != 3 {
		t.Fatalf("SyncTopologies() = %v", got)
	}

	run := func(topo SyncTopology) Stats {
		// SyncNow at every 50 ms mark instead of the periodic pipeline keeps
		// wall-clock out of the delta payloads: the pipeline reads state at
		// scheduling-dependent moments, so SyncWireBytes would drift under
		// load (see deltasync_test.go for the same pin).
		srv, err := New(
			WithProfile(p), WithSeed(42), WithReplicas(4),
			WithRouter(HashRouter), WithSyncEvery(0),
			WithSyncTopology(topo), WithDeltaSync(true), WithCompression(3),
		)
		if err != nil {
			t.Fatal(err)
		}
		fleet := srv.(*Cluster)
		gen := NewWorkload(p, 42)
		synced := 0
		for i := 0; i < 400; i++ {
			if _, err := fleet.Serve(gen.Next()); err != nil {
				t.Fatal(err)
			}
			for e := int(math.Floor(fleet.VirtualNow() / 0.05)); synced < e; synced++ {
				if _, err := fleet.SyncNow(); err != nil {
					t.Fatal(err)
				}
			}
		}
		st := srv.Stats()
		if st.SyncTopology != string(topo) {
			t.Fatalf("Stats().SyncTopology = %q, want %q", st.SyncTopology, topo)
		}
		if st.Syncs == 0 || st.SyncWireBytes == 0 {
			t.Fatalf("%s: sync accounting missing: syncs=%d wire=%d", topo, st.Syncs, st.SyncWireBytes)
		}
		return st
	}
	flat := run(SyncTopologyFlat)
	ring := run(SyncTopologyRing)
	tree := run(SyncTopologyTree)

	// The serving schedule is topology-invariant; the bill is not. (State
	// bit-identity for identical sync inputs is pinned at the collective and
	// cluster layers, where the inputs can be held fixed.)
	for _, st := range []Stats{ring, tree} {
		if st.Served != flat.Served || st.TrainSteps != flat.TrainSteps || st.Syncs != flat.Syncs {
			t.Fatalf("topology changed the serving schedule:\n flat %+v\n got %+v", flat, st)
		}
	}
	// Hierarchical collectives must undercut flat's wire bill for a 4-member
	// fleet shipping the same payloads.
	if tree.SyncWireBytes >= flat.SyncWireBytes || ring.SyncWireBytes >= flat.SyncWireBytes {
		t.Fatalf("wire bills: flat=%d ring=%d tree=%d — hierarchical must undercut flat",
			flat.SyncWireBytes, ring.SyncWireBytes, tree.SyncWireBytes)
	}
	// The compression knob billed cpu time on every variant.
	if tree.SyncCompressSeconds <= 0 {
		t.Fatalf("compression seconds missing: %+v", tree)
	}
}
