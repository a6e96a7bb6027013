package driver

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"liveupdate/internal/cluster"
	"liveupdate/internal/core"
	"liveupdate/internal/fleet"
	"liveupdate/internal/trace"
)

func testProfile(t testing.TB) trace.Profile {
	t.Helper()
	p, err := trace.ProfileByName("criteo")
	if err != nil {
		t.Fatal(err)
	}
	p.NumTables = 3
	p.TableSize = 300
	p.NumDense = 4
	p.MultiHot = []int{1, 1, 1}
	return p
}

// testCluster builds a fleet whose periodic sync fires every 2 virtual
// seconds — several epochs per drive.
func testCluster(t testing.TB, replicas int, policy cluster.Policy) *cluster.Cluster {
	t.Helper()
	opts := core.DefaultOptions(testProfile(t), 42)
	opts.TrainInterval = 4
	r, err := cluster.NewRouter(policy)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(cluster.Config{
		Base:      opts,
		Replicas:  replicas,
		Router:    r,
		SyncEvery: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDriveCancellation cancels mid-drive and expects a prompt partial
// report with Cancelled set and no error.
func TestDriveCancellation(t *testing.T) {
	c := testCluster(t, 4, cluster.RoundRobin)
	gen := trace.MustNewGenerator(testProfile(t), 5)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const requests = 50000
	rep, err := Drive(ctx, c, gen.Next, Config{
		Requests: requests, Workers: 8,
		ProgressEvery: 100,
		OnProgress: func(served uint64) {
			if served >= 500 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Cancelled {
		t.Fatal("report must be marked Cancelled")
	}
	if rep.Served < 500 || rep.Served >= requests {
		t.Fatalf("partial drive expected, served %d of %d", rep.Served, requests)
	}
	if st := c.Stats(); st.Served != rep.Served {
		t.Fatalf("server saw %d requests, report says %d", st.Served, rep.Served)
	}
}

// errServer fails after a fixed number of requests.
type errServer struct {
	sys   *core.System
	limit uint64
	n     atomic.Uint64
}

func (e *errServer) Serve(s trace.Sample) (core.Response, error) {
	if e.n.Add(1) > e.limit {
		return core.Response{}, fmt.Errorf("synthetic failure")
	}
	return e.sys.Serve(s)
}

func (e *errServer) Stats() core.Stats { return e.sys.Stats() }

func TestDriveServeErrorAborts(t *testing.T) {
	sys, err := core.New(core.DefaultOptions(testProfile(t), 42))
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.MustNewGenerator(testProfile(t), 13)
	rep, err := Drive(context.Background(), &errServer{sys: sys, limit: 100}, gen.Next,
		Config{Requests: 10000, Workers: 2})
	if err == nil {
		t.Fatal("serve error must abort the drive with an error")
	}
	if rep.Served >= 10000 {
		t.Fatalf("drive must stop early, served %d", rep.Served)
	}
	if rep.Cancelled {
		t.Fatal("an aborted drive is an error, not a cancellation")
	}
}

func TestDriveConfigValidation(t *testing.T) {
	c := testCluster(t, 2, cluster.RoundRobin)
	gen := trace.MustNewGenerator(testProfile(t), 1)
	if _, err := Drive(context.Background(), c, gen.Next, Config{Requests: 0}); err == nil {
		t.Fatal("Requests=0 must be rejected")
	}
	if _, err := Drive(context.Background(), nil, gen.Next, Config{Requests: 1}); err == nil {
		t.Fatal("nil server must be rejected")
	}
	if _, err := Drive(context.Background(), c, nil, Config{Requests: 1}); err == nil {
		t.Fatal("nil workload must be rejected")
	}
}

// TestDriveHammersClusterRace drives one Cluster from 8 goroutines calling
// Serve directly — no driver sequencing — while a reader polls merged Stats.
// It asserts nothing about determinism (direct concurrent Serve races for
// arrival order by design); under -race it proves the locking story: serve
// vs serve, serve vs periodic sync, serve vs Stats.
func TestDriveHammersClusterRace(t *testing.T) {
	c := testCluster(t, 4, cluster.Hash)
	const (
		goroutines = 8
		perG       = 300
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gen := trace.MustNewGenerator(testProfile(t), uint64(100+g))
			for i := 0; i < perG; i++ {
				if _, err := c.Serve(gen.Next()); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	// Concurrent merged-stats readers while the hammer runs, plus a direct
	// replica reader: Cluster.Replica(i) hands out the System itself, and
	// its methods must stay race-free against periodic syncs mutating the
	// replica's adapters under the fleet barrier.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = c.Stats()
				_ = c.Replica(r).Stats()
				_ = c.Replica(r).MemoryOverhead()
			}
		}(r)
	}
	wg.Wait()
	if st := c.Stats(); st.Served != goroutines*perG {
		t.Fatalf("served %d, want %d", st.Served, goroutines*perG)
	}
	if _, err := c.SyncNow(); err != nil {
		t.Fatal(err)
	}
	if !c.ReplicasConsistent(20) {
		t.Fatal("replicas inconsistent after final sync")
	}
}

// --- Chaos schedules ----------------------------------------------------

// chaosCluster builds an elastic fleet fixture for chaos drives. Pruning is
// disabled so post-churn consistency is structural (usage-based pruning
// evicts published rows at per-replica adapt boundaries — a sync-protocol
// quirk orthogonal to membership).
func chaosCluster(t testing.TB, replicas int) *cluster.Cluster {
	t.Helper()
	opts := core.DefaultOptions(testProfile(t), 42)
	opts.TrainInterval = 4
	opts.LoRA.PruneThresh = 0
	r, err := cluster.NewRouter(cluster.Hash)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(cluster.Config{
		Base:      opts,
		Replicas:  replicas,
		Router:    r,
		SyncEvery: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDriveChaosScaleAddsLanes: replicas joining mid-drive get shard lanes
// (slot%workers) and actually absorb routed traffic.
func TestDriveChaosScaleAddsLanes(t *testing.T) {
	c := chaosCluster(t, 2)
	gen := trace.MustNewGenerator(testProfile(t), 19)
	rep, err := Drive(context.Background(), c, gen.Next, Config{
		Requests: 3000, Workers: 2, Seed: 3,
		Chaos: fleet.Schedule{{At: 500 * time.Millisecond, Action: fleet.Scale, Arg: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shards != 4 {
		t.Fatalf("final shard capacity %d, want 4 after scale-up", rep.Shards)
	}
	if len(rep.Chaos) != 1 {
		t.Fatalf("scale event never fired: %+v", rep)
	}
	for slot := 2; slot < 4; slot++ {
		sys := c.Replica(slot)
		if sys == nil || sys.Stats().Served == 0 {
			t.Fatalf("joined replica in slot %d absorbed no traffic", slot)
		}
	}
	// Lane bookkeeping covers the grown topology.
	owned := map[int]bool{}
	for _, ws := range rep.PerWorker {
		for _, s := range ws.Shards {
			owned[s] = true
		}
	}
	for s := 0; s < 4; s++ {
		if !owned[s] {
			t.Fatalf("shard %d missing from worker lane report: %+v", s, rep.PerWorker)
		}
	}
}

func TestDriveChaosConfigErrors(t *testing.T) {
	schedule := fleet.Schedule{{At: time.Second, Action: fleet.Kill, Arg: 0}}
	sys, err := core.New(core.DefaultOptions(testProfile(t), 42))
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.MustNewGenerator(testProfile(t), 5)
	if _, err := Drive(context.Background(), sys, gen.Next, Config{
		Requests: 10, Chaos: schedule,
	}); err == nil {
		t.Fatal("chaos against a non-elastic server must be a config error")
	}
	c := chaosCluster(t, 2)
	bad := fleet.Schedule{{At: -time.Second, Action: fleet.Kill, Arg: 0}}
	if _, err := Drive(context.Background(), c, gen.Next, Config{
		Requests: 10, Chaos: bad,
	}); err == nil {
		t.Fatal("invalid schedule must be a config error")
	}
}

// TestDriveBatchedMatchesUnbatched holds the one-lane fallback: a server
// without shards is driven as one FIFO lane, extra workers idle (NaN P99),
// and it ends where a plain Serve loop ends — a System through its own
// ServeBatch, and a server with Serve alone one Serve per request, batched
// or not. That coalescing leaves a fleet's statistics alone is
// TestDeterminismMatrix's.
func TestDriveBatchedMatchesUnbatched(t *testing.T) {
	const requests = 3000
	opts := core.DefaultOptions(testProfile(t), 42)
	opts.TrainInterval = 4
	loop, gen := core.MustNew(opts), trace.MustNewGenerator(testProfile(t), 7)
	for i := 0; i < requests; i++ {
		if _, err := loop.Serve(gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	want := fmt.Sprintf("%+v", loop.Stats())
	for _, tc := range []struct {
		stub  bool
		batch int
	}{{false, 1}, {true, 1}, {true, 16}, {false, 16}} {
		sys := core.MustNew(opts)
		var srv Server = sys
		stub := &errServer{sys: sys, limit: math.MaxUint64}
		if tc.stub {
			srv = stub
		}
		gen := trace.MustNewGenerator(testProfile(t), 7)
		rep, err := Drive(context.Background(), srv, gen.Next, Config{
			Requests: requests, Workers: 3, Seed: 1, BatchSize: tc.batch,
		})
		if err != nil {
			t.Fatalf("stub=%v batch=%d: %v", tc.stub, tc.batch, err)
		}
		if rep.Shards != 1 || rep.Served != requests || rep.PerWorker[0].Served != requests ||
			!math.IsNaN(rep.PerWorker[1].P99Latency) || !math.IsNaN(rep.PerWorker[2].P99Latency) {
			t.Fatalf("stub=%v batch=%d: %d shards, served %d, workers %+v", tc.stub, tc.batch, rep.Shards, rep.Served, rep.PerWorker)
		}
		if n := stub.n.Load(); tc.stub && n != requests {
			t.Fatalf("Serve-only stub, batch=%d: Serve called %d times for %d requests", tc.batch, n, requests)
		}
		if got := fmt.Sprintf("%+v", rep.Final); got != want {
			t.Fatalf("stub=%v batch=%d: stats differ from a Serve loop:\n want %s\n got  %s", tc.stub, tc.batch, want, got)
		}
	}
}

// keyStats projects the worker-count-invariant virtual-time fields: fleet
// counters and quantiles, and the full per-replica snapshots minus the
// adapter-content fields.
type keyStats struct {
	served, violations, trainSteps uint64
	syncs                          int
	virtualTime, p50, p99          float64
	perReplica                     []core.Stats
}

func keyOf(st core.Stats) keyStats {
	k := keyStats{
		served:      st.Served,
		violations:  st.Violations,
		trainSteps:  st.TrainSteps,
		syncs:       st.Syncs,
		virtualTime: st.VirtualTime,
		p50:         st.P50,
		p99:         st.P99,
	}
	for _, rs := range st.Replicas {
		rs.Replicas = nil
		// Adapter-content metrics are NOT part of the worker-count
		// invariance contract (which covers virtual-time statistics): a
		// periodic sync snapshots whatever each replica's support holds
		// when the pipeline gets to it, which depends on scheduling. The
		// merged VALUES land somewhere either way (this epoch or the next)
		// without touching any virtual clock, but row-census metrics
		// derived from them may differ.
		rs.LoRAHotRows = 0
		rs.MemoryOverhead = 0
		k.perReplica = append(k.perReplica, rs)
	}
	return k
}

// TestDriveWorkerCountInvariance is the tentpole's determinism property:
// every virtual-time statistic — including per-replica clocks, violation
// counts, and the periodic sync count — is identical whether one goroutine
// or eight drive the fleet.
func TestDriveWorkerCountInvariance(t *testing.T) {
	const requests = 3000
	for _, policy := range []cluster.Policy{cluster.RoundRobin, cluster.Hash} {
		var want keyStats
		for i, workers := range []int{1, 8} {
			c := testCluster(t, 4, policy)
			gen := trace.MustNewGenerator(testProfile(t), 7)
			rep, err := Drive(context.Background(), c, gen.Next, Config{
				Requests: requests, Workers: workers, Seed: 1,
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", policy, workers, err)
			}
			if rep.Served != requests {
				t.Fatalf("%s workers=%d: served %d of %d", policy, workers, rep.Served, requests)
			}
			got := keyOf(rep.Final)
			if got.syncs == 0 {
				t.Fatalf("%s workers=%d: no periodic syncs fired (virtual time %.3fs)",
					policy, workers, got.virtualTime)
			}
			if i == 0 {
				want = got
				continue
			}
			if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
				t.Fatalf("%s: virtual-time stats differ between 1 and 8 workers:\n  1: %+v\n  8: %+v",
					policy, want, got)
			}
		}
	}
}

// TestDriveAsyncVirtualTimeInvariance is the async pipeline's determinism
// contract under the driver: with background merges publishing at arbitrary
// wall-clock points, every virtual-time statistic — fleet and per-replica —
// is still identical for 1 vs 8 workers and across repeated runs.
func TestDriveAsyncVirtualTimeInvariance(t *testing.T) {
	run := func(workers int) keyStats {
		c := testCluster(t, 4, cluster.Hash)
		gen := trace.MustNewGenerator(testProfile(t), 7)
		rep, err := Drive(context.Background(), c, gen.Next, Config{
			Requests: 3000, Workers: workers, Seed: 1,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st := rep.Final; st.SyncSeconds != st.SyncComputeSeconds+st.SyncPublishSeconds {
			t.Fatalf("workers=%d: sync stall split inconsistent: %v != %v + %v",
				workers, st.SyncSeconds, st.SyncComputeSeconds, st.SyncPublishSeconds)
		}
		return keyOf(rep.Final)
	}
	want := run(1)
	if want.syncs == 0 {
		t.Fatalf("no periodic syncs fired: %+v", want)
	}
	for _, workers := range []int{1, 8} {
		if got := run(workers); fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
			t.Fatalf("async virtual-time stats vary (workers=%d):\n  want %+v\n  got  %+v", workers, want, got)
		}
	}
}

// TestDriveSingleSystem drives a non-sharded Server: all load flows through
// one FIFO lane, extra workers idle, and the result matches a plain serve
// loop exactly.
func TestDriveSingleSystem(t *testing.T) {
	opts := core.DefaultOptions(testProfile(t), 42)
	opts.TrainInterval = 4

	seq, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.MustNewGenerator(testProfile(t), 3)
	for i := 0; i < 500; i++ {
		if _, err := seq.Serve(gen.Next()); err != nil {
			t.Fatal(err)
		}
	}

	drv, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	gen = trace.MustNewGenerator(testProfile(t), 3)
	rep, err := Drive(context.Background(), drv, gen.Next, Config{Requests: 500, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shards != 1 {
		t.Fatalf("System must drive as 1 shard, got %d", rep.Shards)
	}
	a, b := seq.Stats(), rep.Final
	if a.Served != b.Served || a.Violations != b.Violations ||
		a.TrainSteps != b.TrainSteps || a.VirtualTime != b.VirtualTime || a.P99 != b.P99 {
		t.Fatalf("driven System diverged from serve loop:\n  loop:  %+v\n  drive: %+v", a, b)
	}
	idle := 0
	for _, ws := range rep.PerWorker {
		if ws.Served == 0 {
			idle++
			if !math.IsNaN(ws.P99Latency) {
				t.Fatalf("idle worker %d must report NaN P99, got %v", ws.Worker, ws.P99Latency)
			}
		}
	}
	if idle != 3 {
		t.Fatalf("expected 3 idle workers over 1 shard, got %d idle", idle)
	}
}

// TestDriveBatchSingleSystem: batching against a non-sharded System goes
// through its one lane's System.ServeBatch and still matches the sequential
// loop.
func TestDriveBatchSingleSystem(t *testing.T) {
	opts := core.DefaultOptions(testProfile(t), 42)
	opts.TrainInterval = 4
	seq := core.MustNew(opts)
	gen := trace.MustNewGenerator(testProfile(t), 3)
	for i := 0; i < 800; i++ {
		if _, err := seq.Serve(gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	driven := core.MustNew(opts)
	gen2 := trace.MustNewGenerator(testProfile(t), 3)
	rep, err := Drive(context.Background(), driven, gen2.Next, Config{
		Requests: 800, Workers: 4, Seed: 1, BatchSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served != 800 {
		t.Fatalf("served %d", rep.Served)
	}
	ss, ds := seq.Stats(), driven.Stats()
	if ss.Served != ds.Served || ss.VirtualTime != ds.VirtualTime ||
		ss.Violations != ds.Violations || ss.TrainSteps != ds.TrainSteps || ss.P99 != ds.P99 {
		t.Fatalf("single-system batched drive diverged:\n seq %+v\n drv %+v", ss, ds)
	}
}
