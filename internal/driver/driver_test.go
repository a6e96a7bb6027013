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
		if rep.SyncStallSeconds != rep.SyncComputeSeconds+rep.SyncPublishSeconds {
			t.Fatalf("workers=%d: sync stall split inconsistent: %v != %v + %v",
				workers, rep.SyncStallSeconds, rep.SyncComputeSeconds, rep.SyncPublishSeconds)
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

// TestDriveDeterministicAtFixedSeed re-runs the same drive (same seed, same
// concurrency) and requires the full report — per-worker breakdown included
// — to match, modulo wall-clock fields.
func TestDriveDeterministicAtFixedSeed(t *testing.T) {
	run := func() Report {
		c := testCluster(t, 4, cluster.Hash)
		gen := trace.MustNewGenerator(testProfile(t), 11)
		rep, err := Drive(context.Background(), c, gen.Next, Config{
			Requests: 2000, Workers: 4, Seed: 99,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if keyA, keyB := fmt.Sprintf("%+v", keyOf(a.Final)), fmt.Sprintf("%+v", keyOf(b.Final)); keyA != keyB {
		t.Fatalf("virtual-time stats differ across identical runs:\n  %s\n  %s", keyA, keyB)
	}
	if len(a.PerWorker) != len(b.PerWorker) {
		t.Fatalf("worker counts differ: %d vs %d", len(a.PerWorker), len(b.PerWorker))
	}
	for w := range a.PerWorker {
		wa, wb := a.PerWorker[w], b.PerWorker[w]
		if wa.Served != wb.Served || wa.MeanLatency != wb.MeanLatency ||
			(wa.P99Latency != wb.P99Latency && !(math.IsNaN(wa.P99Latency) && math.IsNaN(wb.P99Latency))) {
			t.Fatalf("worker %d reports differ: %+v vs %+v", w, wa, wb)
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

// TestDriveChaosKillReplaceDeterministic is the elastic-fleet acceptance
// drive: a scripted schedule kills a replica mid-trace, replaces it, and
// scales the fleet — and the run completes with zero failed requests, the
// replacement reaches the fleet epoch (ReplicasConsistent after the
// post-drive drain + merge), and every virtual-time statistic, including
// where in the request sequence each chaos event landed, is identical for
// any worker count.
func TestDriveChaosKillReplaceDeterministic(t *testing.T) {
	const requests = 4000
	schedule := fleet.Schedule{
		{At: 1 * time.Second, Action: fleet.Kill, Arg: 1},
		{At: 1500 * time.Millisecond, Action: fleet.Replace, Arg: 1},
		{At: 2 * time.Second, Action: fleet.Scale, Arg: 5},
	}
	type chaosKey struct {
		stats  keyStats
		events []AppliedEvent
		fleet  [5]int // members, joins, leaves, fails, shards
	}
	var want chaosKey
	for i, workers := range []int{1, 3, 8} {
		c := chaosCluster(t, 4)
		gen := trace.MustNewGenerator(testProfile(t), 7)
		rep, err := Drive(context.Background(), c, gen.Next, Config{
			Requests: requests, Workers: workers, Seed: 1, Chaos: schedule,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Served != requests {
			t.Fatalf("workers=%d: served %d of %d — chaos dropped requests",
				workers, rep.Served, requests)
		}
		if len(rep.Chaos) != len(schedule) || rep.ChaosSkipped != 0 {
			t.Fatalf("workers=%d: applied %d events (skipped %d), want all %d — raise the trace length or lower the timestamps",
				workers, len(rep.Chaos), rep.ChaosSkipped, len(schedule))
		}
		got := chaosKey{
			stats:  keyOf(rep.Final),
			events: rep.Chaos,
			fleet: [5]int{rep.Final.Members, rep.Final.Joins, rep.Final.Leaves,
				rep.Final.Fails, rep.Shards},
		}
		if rep.Final.Members != 5 || rep.Final.Fails != 1 || rep.Final.Joins != 2 {
			t.Fatalf("workers=%d: fleet counters members=%d fails=%d joins=%d, want 5/1/2",
				workers, rep.Final.Members, rep.Final.Fails, rep.Final.Joins)
		}
		if rep.Final.CatchUpBytes == 0 || rep.Final.CatchUpSeconds <= 0 {
			t.Fatalf("workers=%d: catch-up bill missing: %+v", workers, rep.Final)
		}
		// The replacement must carry load after rejoining.
		if sys := c.Replica(1); sys == nil || sys.Stats().Served == 0 {
			t.Fatalf("workers=%d: replacement in slot 1 served nothing", workers)
		}
		// Catch-up + post-churn syncs must reconcile the whole fleet.
		if _, err := c.SyncNow(); err != nil {
			t.Fatalf("workers=%d: SyncNow: %v", workers, err)
		}
		if !c.ReplicasConsistent(50) {
			t.Fatalf("workers=%d: fleet inconsistent after drain + merge", workers)
		}
		if i == 0 {
			want = got
			continue
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
			t.Fatalf("chaos drive diverges between worker counts:\n  want %+v\n  got(%d) %+v",
				want, workers, got)
		}
	}
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

// TestDriveBatchedMatchesUnbatched: lane-worker coalescing must leave every
// virtual-time statistic identical to unbatched driving, across batch sizes
// and worker counts. Per-worker stats are also checked at a fixed worker
// count: coalescing preserves each queue's serve order, so the reservoir
// streams match item for item.
func TestDriveBatchedMatchesUnbatched(t *testing.T) {
	const requests = 3000
	run := func(workers, batch int) Report {
		c := testCluster(t, 4, cluster.Hash)
		gen := trace.MustNewGenerator(testProfile(t), 7)
		rep, err := Drive(context.Background(), c, gen.Next, Config{
			Requests: requests, Workers: workers, Seed: 1, BatchSize: batch,
		})
		if err != nil {
			t.Fatalf("workers=%d batch=%d: %v", workers, batch, err)
		}
		if rep.Served != requests {
			t.Fatalf("workers=%d batch=%d: served %d", workers, batch, rep.Served)
		}
		return rep
	}
	want := keyOf(run(1, 1).Final)
	if want.syncs == 0 {
		t.Fatal("no periodic syncs fired")
	}
	for _, workers := range []int{1, 3, 8} {
		for _, batch := range []int{4, 16} {
			rep := run(workers, batch)
			if rep.BatchSize != batch {
				t.Fatalf("effective batch %d, want %d", rep.BatchSize, batch)
			}
			got := keyOf(rep.Final)
			if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
				t.Fatalf("workers=%d batch=%d: virtual stats differ:\n want %+v\n got  %+v",
					workers, batch, want, got)
			}
		}
	}

	// The one-lane fallback: a server with Serve alone — no shards, no
	// ServeBatch — is driven as one lane that serves a run one Serve at a
	// time, batched or not, and matches a System driven through its own
	// ServeBatch.
	opts := core.DefaultOptions(testProfile(t), 42)
	opts.TrainInterval = 4
	var wantOne keyStats
	for i, batch := range []int{1, 1, 16} {
		sys := core.MustNew(opts)
		var srv Server = sys
		stub := &errServer{sys: sys, limit: math.MaxUint64}
		if i > 0 {
			srv = stub
		}
		gen := trace.MustNewGenerator(testProfile(t), 7)
		rep, err := Drive(context.Background(), srv, gen.Next, Config{
			Requests: requests, Workers: 3, Seed: 1, BatchSize: batch,
		})
		if err != nil {
			t.Fatalf("one lane, batch=%d: %v", batch, err)
		}
		if rep.Shards != 1 || rep.Served != requests {
			t.Fatalf("one lane, batch=%d: %d shards, served %d", batch, rep.Shards, rep.Served)
		}
		if i == 0 {
			wantOne = keyOf(rep.Final)
			continue
		}
		if n := stub.n.Load(); n != requests {
			t.Fatalf("Serve-only stub, batch=%d: Serve called %d times for %d requests", batch, n, requests)
		}
		if got := keyOf(rep.Final); fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", wantOne) {
			t.Fatalf("Serve-only stub, batch=%d: virtual stats differ:\n want %+v\n got  %+v", batch, wantOne, got)
		}
	}
}

// TestDriveBatchedPerWorkerOrder: at a fixed worker count, batched and
// unbatched drives must produce identical per-worker virtual statistics —
// the strongest order-preservation check (reservoir streams are
// order-sensitive).
func TestDriveBatchedPerWorkerOrder(t *testing.T) {
	run := func(batch int) Report {
		c := testCluster(t, 4, cluster.Hash)
		gen := trace.MustNewGenerator(testProfile(t), 11)
		rep, err := Drive(context.Background(), c, gen.Next, Config{
			Requests: 2000, Workers: 2, Seed: 9, BatchSize: batch,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(1), run(16)
	if b.Batches > a.Batches {
		t.Fatalf("batched drive issued more serve calls (%d) than unbatched (%d)", b.Batches, a.Batches)
	}
	for w := range a.PerWorker {
		wa, wb := a.PerWorker[w], b.PerWorker[w]
		if wa.Served != wb.Served || wa.MeanLatency != wb.MeanLatency ||
			(wa.P99Latency != wb.P99Latency && !(math.IsNaN(wa.P99Latency) && math.IsNaN(wb.P99Latency))) {
			t.Fatalf("worker %d stats differ batched vs not: %+v vs %+v", w, wa, wb)
		}
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

// TestDriveChaosBatched: coalescing composes with chaos drain points — the
// gate counts every coalesced item, so membership events still land at fully
// drained, deterministic positions.
func TestDriveChaosBatched(t *testing.T) {
	schedule, err := fleet.ParseScript("@1500ms kill 1; @2500ms scale 5")
	if err != nil {
		t.Fatal(err)
	}
	var want Report
	for i, batch := range []int{1, 8} {
		c := testCluster(t, 4, cluster.Hash)
		gen := trace.MustNewGenerator(testProfile(t), 7)
		rep, err := Drive(context.Background(), c, gen.Next, Config{
			Requests: 4000, Workers: 3, Seed: 1, BatchSize: batch, Chaos: schedule,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Served != 4000 {
			t.Fatalf("batch=%d: served %d", batch, rep.Served)
		}
		if len(rep.Chaos) != 2 {
			t.Fatalf("batch=%d: applied %d chaos events, want 2", batch, len(rep.Chaos))
		}
		if i == 0 {
			want = rep
			continue
		}
		for j := range want.Chaos {
			if want.Chaos[j] != rep.Chaos[j] {
				t.Fatalf("chaos placement differs batched vs not: %+v vs %+v", want.Chaos[j], rep.Chaos[j])
			}
		}
		if a, b := keyOf(want.Final), keyOf(rep.Final); fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
			t.Fatalf("chaos virtual stats differ batched vs not:\n %+v\n %+v", a, b)
		}
	}
}
