// Fleet-level acceptance tests, deliberately in an external test package so
// they can only reach what a downstream user can: the public liveupdate API.
package liveupdate_test

import (
	"testing"
	"time"

	"liveupdate"
)

func clusterProfile(t *testing.T) liveupdate.Profile {
	t.Helper()
	p, err := liveupdate.ProfileByName("criteo")
	if err != nil {
		t.Fatal(err)
	}
	p.NumTables = 3
	p.TableSize = 400
	p.NumDense = 4
	p.MultiHot = []int{1, 1, 1}
	return p
}

// TestClusterReplicaConsistencyPublicAPI is the paper §II-C invariant as an
// acceptance test: four replicas behind the hash router train on disjoint
// request shards, and one priority-merge sync makes every replica's
// effective embedding rows identical.
func TestClusterReplicaConsistencyPublicAPI(t *testing.T) {
	p := clusterProfile(t)
	srv, err := liveupdate.New(
		liveupdate.WithProfile(p),
		liveupdate.WithSeed(23),
		liveupdate.WithReplicas(4),
		liveupdate.WithRouter(liveupdate.HashRouter),
		liveupdate.WithSyncEvery(0), // manual sync below
	)
	if err != nil {
		t.Fatal(err)
	}
	fleet, ok := srv.(*liveupdate.Cluster)
	if !ok {
		t.Fatalf("WithReplicas(4) must build a *Cluster, got %T", srv)
	}
	if fleet.RouterName() != string(liveupdate.HashRouter) {
		t.Fatalf("router = %s, want %s", fleet.RouterName(), liveupdate.HashRouter)
	}

	gen := liveupdate.NewWorkload(p, 23)
	for i := 0; i < 1000; i++ {
		if _, err := srv.Serve(gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	if fleet.ReplicasConsistent(50) {
		t.Fatal("replicas must diverge while training on disjoint shards")
	}
	if _, err := fleet.SyncNow(); err != nil {
		t.Fatal(err)
	}
	if !fleet.ReplicasConsistent(50) {
		t.Fatal("replicas must serve identical effective embeddings after sync")
	}

	st := srv.Stats()
	if st.Served != 1000 || len(st.Replicas) != 4 {
		t.Fatalf("merged stats wrong shape: served=%d replicas=%d", st.Served, len(st.Replicas))
	}
	if st.Syncs != 1 || st.SyncBytes == 0 || st.SyncSeconds <= 0 {
		t.Fatalf("sync accounting missing from merged stats: %+v", st)
	}
}

// driveFleet builds a 4-replica hash-routed fleet with the given periodic
// sync interval (0 disables it) and returns it plus a fresh workload at a
// fixed seed.
func driveFleet(t *testing.T, syncEvery time.Duration) (*liveupdate.Cluster, *liveupdate.Workload) {
	t.Helper()
	p := clusterProfile(t)
	srv, err := liveupdate.New(
		liveupdate.WithProfile(p),
		liveupdate.WithSeed(31),
		liveupdate.WithReplicas(4),
		liveupdate.WithRouter(liveupdate.HashRouter),
		liveupdate.WithSyncEvery(syncEvery),
	)
	if err != nil {
		t.Fatal(err)
	}
	return srv.(*liveupdate.Cluster), liveupdate.NewWorkload(p, 31)
}

// TestClusterPeriodicSyncPublicAPI drives a fleet with the periodic sync
// enabled and checks that syncs fire on the virtual-time cadence and leave
// the fleet consistent at the end of the run.
func TestClusterPeriodicSyncPublicAPI(t *testing.T) {
	p := clusterProfile(t)
	srv, err := liveupdate.New(
		liveupdate.WithProfile(p),
		liveupdate.WithReplicas(3),
		liveupdate.WithRouter(liveupdate.LeastLoadedRouter),
		liveupdate.WithSyncEvery(100*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	gen := liveupdate.NewWorkload(p, 5)
	for i := 0; i < 600; i++ {
		if _, err := srv.Serve(gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.Syncs == 0 {
		t.Fatalf("periodic sync never fired in %.3fs of virtual time", st.VirtualTime)
	}
	var perReplica uint64
	for _, rs := range st.Replicas {
		perReplica += rs.Served
	}
	if perReplica != st.Served {
		t.Fatalf("replica breakdown (%d) disagrees with merged Served (%d)", perReplica, st.Served)
	}
}

// TestDriveMatchesSequentialServe is the acceptance property of the
// concurrent load driver, at the public API: an 8-worker Drive over a
// 4-replica fleet produces exactly the virtual-time statistics of a plain
// sequential Serve loop — same Served, Violations, TrainSteps, periodic
// sync count, per-replica clocks, and fleet P99 — while actually serving
// replicas from parallel goroutines: the periodic-sync pipeline moves merges
// off the serving critical path without perturbing any virtual-time
// statistic.
func TestDriveMatchesSequentialServe(t *testing.T) {
	const requests = 3000

	seq, gen := driveFleet(t, 2*time.Second)
	for i := 0; i < requests; i++ {
		if _, err := seq.Serve(gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	want := seq.Stats()

	par, gen := driveFleet(t, 2*time.Second)
	rep, err := liveupdate.Drive(par, gen, liveupdate.DriveConfig{
		Requests: requests,
		Workers:  8,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served != requests {
		t.Fatalf("drive served %d of %d", rep.Served, requests)
	}
	got := rep.Final

	if want.Syncs == 0 {
		t.Fatalf("fixture too small: no periodic syncs in %.2fs of virtual time", want.VirtualTime)
	}
	if got.Served != want.Served || got.Violations != want.Violations ||
		got.TrainSteps != want.TrainSteps || got.Syncs != want.Syncs ||
		got.VirtualTime != want.VirtualTime || got.P99 != want.P99 || got.P50 != want.P50 {
		t.Fatalf("parallel drive diverged from sequential serve:\n"+
			"  sequential: served=%d violations=%d steps=%d syncs=%d vt=%v p99=%v\n"+
			"  parallel:   served=%d violations=%d steps=%d syncs=%d vt=%v p99=%v",
			want.Served, want.Violations, want.TrainSteps, want.Syncs, want.VirtualTime, want.P99,
			got.Served, got.Violations, got.TrainSteps, got.Syncs, got.VirtualTime, got.P99)
	}
	if len(got.Replicas) != len(want.Replicas) {
		t.Fatalf("replica counts differ: %d vs %d", len(got.Replicas), len(want.Replicas))
	}
	for i := range want.Replicas {
		w, g := want.Replicas[i], got.Replicas[i]
		if g.Served != w.Served || g.Violations != w.Violations ||
			g.TrainSteps != w.TrainSteps || g.VirtualTime != w.VirtualTime || g.P99 != w.P99 {
			t.Fatalf("replica %d diverged:\n  sequential: %+v\n  parallel:   %+v", i, w, g)
		}
	}
	// The drive's final snapshot carries the sync-stall split.
	if st := rep.Final; st.SyncSeconds <= 0 ||
		st.SyncSeconds != st.SyncComputeSeconds+st.SyncPublishSeconds {
		t.Fatalf("sync-stall split missing from report: total=%v compute=%v publish=%v",
			st.SyncSeconds, st.SyncComputeSeconds, st.SyncPublishSeconds)
	}
}
