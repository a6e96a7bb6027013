package cluster

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"liveupdate/internal/core"
	"liveupdate/internal/trace"
)

func testProfile(t *testing.T) trace.Profile {
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

func testConfig(t *testing.T, replicas int) Config {
	t.Helper()
	opts := core.DefaultOptions(testProfile(t), 42)
	opts.TrainInterval = 4
	return Config{Base: opts, Replicas: replicas}
}

func TestNewValidation(t *testing.T) {
	cfg := testConfig(t, 0)
	if _, err := New(cfg); err == nil {
		t.Fatal("Replicas=0 must be rejected")
	}
	cfg = testConfig(t, 2)
	cfg.SyncEvery = -time.Second
	if _, err := New(cfg); err == nil {
		t.Fatal("negative SyncEvery must be rejected")
	}
}

// TestClusterServeSteadyStateAllocs: a request through a warm fleet — route,
// the one-sample run of ServeShardBatch, the replica's batched forward and
// bookkeeping tail — allocates nothing.
func TestClusterServeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := testConfig(t, 4)
	r, err := NewRouter(Hash)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Router = r
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.MustNewGenerator(testProfile(t), 47)
	samples := make([]trace.Sample, 256)
	for i := range samples {
		samples[i] = gen.Next()
	}
	for round := 0; round < 4; round++ {
		for _, s := range samples {
			if _, err := c.Serve(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := c.Serve(samples[i%len(samples)]); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Fatalf("warm Cluster.Serve allocates %v per request, want 0", n)
	}
}

// serveSyncingAtMarks serves n requests from gen one at a time and, after
// each, calls SyncNow once for every `every` mark of the fleet clock crossed
// since the last call (*synced counts the marks already synced). It is the
// periodic schedule run as explicit barriers, so which training lands before
// each merge is a function of the request sequence alone.
func serveSyncingAtMarks(t *testing.T, c *Cluster, gen *trace.Generator, n int, every time.Duration, synced *int64) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := c.Serve(gen.Next()); err != nil {
			t.Fatalf("serve: %v", err)
		}
		for e := int64(math.Floor(c.VirtualNow() / every.Seconds())); *synced < e; *synced++ {
			if _, err := c.SyncNow(); err != nil {
				t.Fatalf("SyncNow: %v", err)
			}
		}
	}
}

// TestAsyncServeNeverBlocksOnInFlightSync is the tentpole acceptance test:
// ServeShard must not block on any fleet-wide write lock while a periodic
// sync is in flight. The test parks the pipeline between its snapshot and
// its merge via the stall hook, then serves from N goroutines and requires
// every request to complete — with a bounded per-call wall latency — while
// the merge is still provably unpublished. A stop-the-world periodic sync
// would deadlock this workload by design: it would hold the fleet write lock
// for the whole stall.
func TestAsyncServeNeverBlocksOnInFlightSync(t *testing.T) {
	cfg := testConfig(t, 4)
	cfg.SyncEvery = 20 * time.Millisecond // crossed within a few requests
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inFlight := make(chan struct{}) // closed when the first sync reaches the stall
	release := make(chan struct{})  // closed by the test to let the sync finish
	var hookOnce sync.Once
	c.testSyncStall = func() {
		hookOnce.Do(func() { close(inFlight) })
		<-release
	}

	gen := trace.MustNewGenerator(testProfile(t), 23)
	// Route (deterministically) enough requests to cross the first epoch.
	var warm []trace.Sample
	shards := make([]int, 0, 64)
	for i := 0; i < 64; i++ {
		s := gen.Next()
		warm = append(warm, s)
		shards = append(shards, c.ShardOf(s))
	}
	for i, s := range warm {
		if _, err := c.ServeShard(shards[i], s); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-inFlight:
	case <-time.After(10 * time.Second):
		t.Fatal("periodic sync never started: fixture too small")
	}

	// A sync is now in flight and stalled. Serve from N goroutines, one per
	// replica to keep per-shard order deterministic, and require completion
	// with bounded per-call latency while the merge stays unpublished.
	const perWorker = 50
	const bound = 5 * time.Second // generous for CI; a barrier would stall forever
	var wg sync.WaitGroup
	errs := make(chan error, len(c.Members().active))
	for shard := 0; shard < len(c.Members().active); shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			g := trace.MustNewGenerator(testProfile(t), uint64(100+shard))
			for i := 0; i < perWorker; i++ {
				start := time.Now()
				if _, err := c.ServeShard(shard, g.Next()); err != nil {
					errs <- err
					return
				}
				if d := time.Since(start); d > bound {
					errs <- fmt.Errorf("shard %d: serve stalled %v behind an in-flight sync", shard, d)
					return
				}
			}
		}(shard)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The serving above must have happened entirely during the stalled sync.
	select {
	case <-release:
		t.Fatal("impossible: release already closed")
	default:
	}
	if got := c.syncedEpoch.Load(); got != 0 {
		t.Fatalf("sync published during stall: syncedEpoch = %d", got)
	}

	close(release)
	st := c.Stats() // drains the pipeline
	if st.Syncs == 0 {
		t.Fatal("stalled sync must complete after release")
	}
	wantServed := uint64(len(warm) + len(c.Members().active)*perWorker)
	if st.Served != wantServed {
		t.Fatalf("served %d, want %d", st.Served, wantServed)
	}
}

// TestAsyncPublishStampsEpochs verifies the versioned publish protocol: each
// completed pipeline epoch installs a monotonically increasing epoch stamp
// on every replica's adapter set, readable lock-free.
func TestAsyncPublishStampsEpochs(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.SyncEvery = 30 * time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(c.Members().active); i++ {
		if e := c.Replica(i).AdapterEpoch(); e != -1 {
			t.Fatalf("replica %d epoch before first sync = %d, want -1", i, e)
		}
	}
	gen := trace.MustNewGenerator(testProfile(t), 37)
	for i := 0; i < 400; i++ {
		if _, err := c.Serve(gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Syncs == 0 {
		t.Fatal("no periodic syncs fired")
	}
	if err := c.pipe.failure(); err != nil {
		t.Fatalf("healthy pipeline must report nil Err, got %v", err)
	}
	want := int64(st.Syncs)
	for i := 0; i < len(c.Members().active); i++ {
		if e := c.Replica(i).AdapterEpoch(); e != want {
			t.Fatalf("replica %d epoch = %d, want %d", i, e, want)
		}
	}
}

func TestRoundRobinRouterCycles(t *testing.T) {
	c, err := New(testConfig(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.MustNewGenerator(testProfile(t), 7)
	for i := 0; i < 9; i++ {
		resp, err := c.Serve(gen.Next())
		if err != nil {
			t.Fatal(err)
		}
		if resp.Replica != i%3 {
			t.Fatalf("request %d routed to %d, want %d", i, resp.Replica, i%3)
		}
	}
}

func TestHashRouterDeterministic(t *testing.T) {
	c, err := New(func() Config { cfg := testConfig(t, 4); r, _ := NewRouter(Hash); cfg.Router = r; return cfg }())
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.MustNewGenerator(testProfile(t), 9)
	s := gen.Next()
	first, err := c.Serve(s)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for i := 0; i < 200; i++ {
		resp, err := c.Serve(s)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Replica != first.Replica {
			t.Fatalf("hash router not deterministic: %d then %d", first.Replica, resp.Replica)
		}
		r2, err := c.Serve(gen.Next())
		if err != nil {
			t.Fatal(err)
		}
		seen[r2.Replica] = true
	}
	if len(seen) < 2 {
		t.Fatalf("hash router sent every distinct request to one replica: %v", seen)
	}
}

func TestLeastLoadedBalancesBacklog(t *testing.T) {
	cfg := testConfig(t, 3)
	r, err := NewRouter(LeastLoaded)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Router = r
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.MustNewGenerator(testProfile(t), 11)
	for i := 0; i < 300; i++ {
		if _, err := c.Serve(gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	for i, rs := range st.Replicas {
		if rs.Served == 0 {
			t.Fatalf("replica %d never served under least-loaded", i)
		}
	}
}

func TestUnknownRouterPolicy(t *testing.T) {
	if _, err := NewRouter(Policy("nope")); err == nil {
		t.Fatal("unknown policy must error")
	}
}

func TestSyncRestoresReplicaConsistency(t *testing.T) {
	cfg := testConfig(t, 4)
	r, err := NewRouter(Hash)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Router = r
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.MustNewGenerator(testProfile(t), 13)
	for i := 0; i < 800; i++ {
		if _, err := c.Serve(gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	if c.ReplicasConsistent(50) {
		t.Fatal("sharded training must diverge replicas before sync")
	}
	stats, err := c.SyncNow()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Participants != 4 || stats.RowsMerged == 0 || stats.PayloadBytes == 0 {
		t.Fatalf("implausible merge stats: %+v", stats)
	}
	if !c.ReplicasConsistent(50) {
		t.Fatal("replicas must hold identical effective embeddings after sync")
	}
}

// TestStatsEmptyWindowSentinel is the regression test for the silent
// "P99Latency: 0" bug: an idle fleet has no retained latency samples, so its
// quantiles are undefined and must surface as the documented NaN sentinel —
// not as a zero that reads like a perfect latency.
func TestStatsEmptyWindowSentinel(t *testing.T) {
	c, err := New(testConfig(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Served != 0 {
		t.Fatalf("idle fleet served %d", st.Served)
	}
	if !math.IsNaN(st.P99) || !math.IsNaN(st.P50) {
		t.Fatalf("idle fleet must report NaN quantiles, got P50=%v P99=%v", st.P50, st.P99)
	}
	if _, err := c.Serve(trace.MustNewGenerator(testProfile(t), 1).Next()); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if math.IsNaN(st.P99) || st.P99 <= 0 {
		t.Fatalf("after serving, P99 must be a real latency, got %v", st.P99)
	}
}

// TestStatsCachedBetweenChanges verifies that repeated Stats calls agree,
// that the returned Replicas breakdown does not alias anything a later call
// returns, and that a serve or a sync shows up in the next call.
func TestStatsCachedBetweenChanges(t *testing.T) {
	c, err := New(testConfig(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.MustNewGenerator(testProfile(t), 21)
	for i := 0; i < 50; i++ {
		if _, err := c.Serve(gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	a, b := c.Stats(), c.Stats()
	if a.Served != b.Served || a.P99 != b.P99 || a.VirtualTime != b.VirtualTime {
		t.Fatalf("idempotent Stats calls differ: %+v vs %+v", a, b)
	}
	// Mutating the cached copy's breakdown must not leak into the cache.
	if len(a.Replicas) > 0 {
		a.Replicas[0].Served = 1 << 40
		if got := c.Stats().Replicas[0].Served; got == 1<<40 {
			t.Fatal("Stats cache aliases the returned Replicas slice")
		}
	}
	if _, err := c.Serve(gen.Next()); err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if after.Served != a.Served+1 {
		t.Fatalf("cache not invalidated by Serve: served %d, want %d", after.Served, a.Served+1)
	}
	if _, err := c.SyncNow(); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Syncs; got != after.Syncs+1 {
		t.Fatalf("cache not invalidated by SyncNow: syncs %d, want %d", got, after.Syncs+1)
	}
}

// TestStatsSeesWritesThroughReplica: a serve and a training tick made
// directly on a replica, bypassing the cluster's serve path, show up in the
// next Stats call. (Round-robin gives slot 0 its 18th request, which ends no
// training interval, so each count rises by exactly one.)
func TestStatsSeesWritesThroughReplica(t *testing.T) {
	c, err := New(testConfig(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.MustNewGenerator(testProfile(t), 21)
	for i := 0; i < 50; i++ {
		if _, err := c.Serve(gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Stats()
	if _, err := c.Replica(0).Serve(gen.Next()); err != nil {
		t.Fatal(err)
	}
	c.Replica(1).TrainTick()
	after := c.Stats()
	if after.Served != before.Served+1 {
		t.Fatalf("Served = %d after a serve through Replica(0), want %d", after.Served, before.Served+1)
	}
	if after.TrainSteps != before.TrainSteps+1 {
		t.Fatalf("TrainSteps = %d after a TrainTick through Replica(1), want %d", after.TrainSteps, before.TrainSteps+1)
	}
}

func TestMergedStats(t *testing.T) {
	cfg := testConfig(t, 3)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.MustNewGenerator(testProfile(t), 19)
	for i := 0; i < 300; i++ {
		if _, err := c.Serve(gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Served != 300 {
		t.Fatalf("merged Served = %d, want 300", st.Served)
	}
	if len(st.Replicas) != 3 {
		t.Fatalf("want 3 replica breakdowns, got %d", len(st.Replicas))
	}
	var sumServed, sumSteps uint64
	for _, rs := range st.Replicas {
		sumServed += rs.Served
		sumSteps += rs.TrainSteps
	}
	if sumServed != st.Served || sumSteps != st.TrainSteps {
		t.Fatalf("breakdown does not add up: %+v", st)
	}
	if st.P99 <= 0 || st.MeanLatency <= 0 {
		t.Fatalf("fleet latency stats missing: %+v", st)
	}
	if st.VirtualTime <= 0 {
		t.Fatal("fleet clock must advance")
	}
}

// --- Elastic membership -------------------------------------------------

func TestReplicaBoundsSafe(t *testing.T) {
	c, err := New(testConfig(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{-1, 2, 99} {
		if sys := c.Replica(i); sys != nil {
			t.Fatalf("Replica(%d) = %v, want nil for out-of-range index", i, sys)
		}
	}
	if c.Replica(0) == nil || c.Replica(1) == nil {
		t.Fatal("in-range replicas must be non-nil")
	}
	if err := c.FailReplica(1); err != nil {
		t.Fatal(err)
	}
	if sys := c.Replica(1); sys != nil {
		t.Fatal("an emptied slot must expose a nil replica, not a corpse")
	}
}

func TestClusterMembershipUnderServing(t *testing.T) {
	cfg := testConfig(t, 3)
	cfg.SyncEvery = 50 * time.Millisecond
	// Keep every LoRA row resident: usage-based pruning evicts
	// previously-published rows at per-replica (wall-clock-dependent)
	// adapt boundaries, which can leave rows no later merge
	// re-publishes — a sync-protocol quirk orthogonal to membership.
	// With pruning disabled, post-churn consistency is structural.
	cfg.Base.LoRA.PruneThresh = 0
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.MustNewGenerator(testProfile(t), 31)
	serve := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := c.Serve(gen.Next()); err != nil {
				t.Fatalf("serve: %v", err)
			}
		}
	}
	serve(200)
	if err := c.FailReplica(1); err != nil {
		t.Fatalf("fail: %v", err)
	}
	if len(c.Members().active) != 2 || c.NumShards() != 3 {
		t.Fatalf("size=%d shards=%d after failure", len(c.Members().active), c.NumShards())
	}
	serve(200) // routing must avoid the empty slot
	slot, err := c.ReplaceReplica(1)
	if err != nil || slot != 1 {
		t.Fatalf("replace: slot=%d err=%v", slot, err)
	}
	serve(200)
	if err := c.Scale(5); err != nil {
		t.Fatalf("scale: %v", err)
	}
	serve(200)
	st := c.Stats()
	if st.Served != 800 {
		t.Fatalf("merged Served=%d, want 800 (departed member's share folded in)", st.Served)
	}
	// One fail (the kill; replacing the already-empty slot is a refill,
	// not a second fail), three joins (refill + scale 3→5).
	if st.Members != 5 || st.Fails != 1 || st.Joins != 3 {
		t.Fatalf("fleet counters: members=%d fails=%d joins=%d", st.Members, st.Fails, st.Joins)
	}
	if st.CatchUpBytes == 0 || st.CatchUpSeconds <= 0 {
		t.Fatalf("catch-up bill missing: %+v", st)
	}
	if st.Syncs == 0 {
		t.Fatal("periodic syncs must keep firing across membership changes")
	}
	// An explicit barrier merge must reconcile veterans and newcomers.
	if _, err := c.SyncNow(); err != nil {
		t.Fatalf("SyncNow: %v", err)
	}
	if !c.ReplicasConsistent(50) {
		t.Fatal("fleet inconsistent after post-churn sync")
	}
}

// TestServeShardRedirectsEmptySlot covers the in-flight lane drain: a
// request already routed to a slot whose member failed serves on the next
// active slot, wrapping around past the last, instead of erroring.
func TestServeShardRedirectsEmptySlot(t *testing.T) {
	c, err := New(testConfig(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FailReplica(1); err != nil {
		t.Fatal(err)
	}
	gen := trace.MustNewGenerator(testProfile(t), 41)
	resp, err := c.ServeShard(1, gen.Next())
	if err != nil {
		t.Fatalf("redirected serve failed: %v", err)
	}
	if resp.Replica != 2 {
		t.Fatalf("request for empty slot 1 served by %d, want redirect to 2", resp.Replica)
	}
	if err := c.FailReplica(2); err != nil {
		t.Fatal(err)
	}
	if resp, err = c.ServeShard(1, gen.Next()); err != nil || resp.Replica != 0 {
		t.Fatalf("request for empty slot 1 after a double failure served by %d (err %v), want wrap to 0", resp.Replica, err)
	}
	if _, err := c.ServeShard(7, gen.Next()); err == nil {
		t.Fatal("out-of-capacity shard must still error")
	}
}

// TestHashRingMembershipRemap is the router contract under churn: failing
// one of N replicas remaps only that replica's key share (≈1/N, never to
// the failed slot), and the replacement — a fresh identity, so fresh ring
// points — claims a ≈1/N share back and nothing else.
func TestHashRingMembershipRemap(t *testing.T) {
	const n = 5
	cfg := testConfig(t, n)
	r, err := NewRouter(Hash)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Router = r
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 3000
	gen := trace.MustNewGenerator(testProfile(t), 43)
	samples := make([]trace.Sample, keys)
	before := make([]int, keys)
	for i := range samples {
		samples[i] = gen.Next()
		before[i] = c.ShardOf(samples[i])
	}
	if err := c.FailReplica(3); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i, s := range samples {
		after := c.ShardOf(s)
		if after == 3 {
			t.Fatalf("key %d routed to the failed replica", i)
		}
		if before[i] == 3 {
			moved++
		} else if after != before[i] {
			t.Fatalf("key %d moved %d → %d although its replica survived", i, before[i], after)
		}
	}
	if moved == 0 || moved > 2*keys/n {
		t.Fatalf("failure remapped %d/%d keys, want ≈%d (≤%d)", moved, keys, keys/n, 2*keys/n)
	}
	// The replacement takes over exactly the orphaned arcs plus nothing
	// else it isn't entitled to: every key that moves lands on it.
	slot, err := c.ReplaceReplica(3)
	if err != nil {
		t.Fatal(err)
	}
	claimed := 0
	for i, s := range samples {
		after := c.ShardOf(s)
		if before[i] != 3 && after != before[i] && after != slot {
			t.Fatalf("key %d moved %d → %d after replace (only slot %d may claim keys)",
				i, before[i], after, slot)
		}
		if after == slot {
			claimed++
		}
	}
	if claimed == 0 || claimed > 2*keys/n {
		t.Fatalf("replacement claimed %d/%d keys, want ≈%d (≤%d)", claimed, keys, keys/n, 2*keys/n)
	}
}

// TestLeastLoadedSkipsFailedMember: the backlog router must only ever pick
// live members, even when the failed slot held the smallest clock.
func TestLeastLoadedSkipsFailedMember(t *testing.T) {
	cfg := testConfig(t, 3)
	r, err := NewRouter(LeastLoaded)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Router = r
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.MustNewGenerator(testProfile(t), 47)
	// Load slots 0 and 2 so the idle slot 1 (clock 0) is the least loaded…
	for i := 0; i < 60; i++ {
		if _, err := c.ServeShard(i%2*2, gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.ShardOf(gen.Next()); got != 1 {
		t.Fatalf("fixture: least-loaded should pick idle slot 1, got %d", got)
	}
	// …then kill it: the router must never surface the empty slot again.
	if err := c.FailReplica(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		s := gen.Next()
		if got := c.ShardOf(s); got == 1 {
			t.Fatal("least-loaded routed to a failed member")
		} else if _, err := c.ServeShard(got, s); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentServeAndMembershipExactCounts hammers the fleet from
// serving goroutines while another goroutine churns membership (fail,
// replace, scale, manual syncs). Two invariants pin the membership
// concurrency fixes: no successfully served request may ever vanish from
// the merged totals (a member's stats fold and its removal from the view
// commit atomically behind the fleet write barrier), and a final merge must
// reconcile every member including mid-churn joiners (catch-up holds the
// sync mutex, so it can never interleave with a publish). A poller reads
// Stats throughout: every membership field it reports is written in the
// same fleet write section as the view swap, so each snapshot is whole
// (Members == len(Replicas)) and the cumulative counters never go back.
func TestConcurrentServeAndMembershipExactCounts(t *testing.T) {
	cfg := testConfig(t, 4)
	cfg.SyncEvery = 30 * time.Millisecond
	cfg.Base.LoRA.PruneThresh = 0 // see TestClusterMembershipUnderServing
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 4, 300
	var served atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := trace.MustNewGenerator(testProfile(t), uint64(100+w))
			for i := 0; i < perWorker; i++ {
				if _, err := c.Serve(gen.Next()); err != nil {
					t.Errorf("worker %d: serve: %v", w, err)
					return
				}
				served.Add(1)
			}
		}(w)
	}
	churn := func() {
		for i := 0; i < 12; i++ {
			if err := c.FailReplica(i % c.NumShards()); err == nil {
				if _, err := c.ReplaceReplica(i % c.NumShards()); err != nil {
					t.Errorf("replace: %v", err)
				}
			}
			if err := c.Scale(3 + i%3); err != nil {
				t.Errorf("scale: %v", err)
			}
			if _, err := c.SyncNow(); err != nil {
				t.Errorf("SyncNow: %v", err)
			}
		}
	}
	wg.Add(1)
	go func() { defer wg.Done(); churn() }()
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		var last core.Stats
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := c.Stats()
			if st.Members != len(st.Replicas) {
				t.Errorf("Stats: Members=%d but %d replica rows", st.Members, len(st.Replicas))
			}
			if st.Served < last.Served || st.Joins < last.Joins || st.Leaves < last.Leaves ||
				st.Fails < last.Fails || st.CatchUpBytes < last.CatchUpBytes {
				t.Errorf("Stats went back: served/joins/leaves/fails/catch-up %d/%d/%d/%d/%d after %d/%d/%d/%d/%d",
					st.Served, st.Joins, st.Leaves, st.Fails, st.CatchUpBytes,
					last.Served, last.Joins, last.Leaves, last.Fails, last.CatchUpBytes)
			}
			last = st
		}
	}()
	wg.Wait()
	close(stop)
	<-polled

	st := c.Stats()
	if st.Served != served.Load() {
		t.Fatalf("merged Served=%d but %d requests completed successfully — a member's count was lost in a membership change",
			st.Served, served.Load())
	}
	if _, err := c.SyncNow(); err != nil {
		t.Fatal(err)
	}
	if !c.ReplicasConsistent(30) {
		t.Fatal("fleet inconsistent after churn + final merge: a joiner missed a publish")
	}
}

// TestServeShardBatchMatchesSequential: a coalesced same-shard run is
// served by that shard's replica, and every response says so. That the
// batched path leaves the fleet's statistics alone is the determinism
// matrix's (TestDeterminismMatrix at the repository root).
func TestServeShardBatchMatchesSequential(t *testing.T) {
	cfg := testConfig(t, 3)
	r, err := NewRouter(Hash)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Router = r
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.MustNewGenerator(testProfile(t), 13)
	pend, pendShard := []trace.Sample(nil), -1
	resps := make([]core.Response, 32)
	flush := func() {
		if err := c.ServeShardBatch(pendShard, pend, resps[:len(pend)]); err != nil {
			t.Fatal(err)
		}
		for _, r := range resps[:len(pend)] {
			if r.Replica != pendShard {
				t.Fatalf("response replica %d, want %d", r.Replica, pendShard)
			}
		}
		pend = pend[:0]
	}
	for i := 0; i < 400; i++ {
		s := gen.Next()
		if shard := c.ShardOf(s); shard != pendShard || len(pend) == cap(resps) {
			if len(pend) > 0 {
				flush()
			}
			pendShard = shard
		}
		pend = append(pend, s)
	}
	flush()
	if got := c.Stats().Served; got != 400 {
		t.Fatalf("served %d, want 400", got)
	}
}

// TestServeShardBatchRedirectAndErrors: a batch aimed at an emptied slot
// redirects like ServeShard; bad shard indices and mismatched buffers error
// without serving anything.
func TestServeShardBatchRedirectAndErrors(t *testing.T) {
	cfg := testConfig(t, 3)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.MustNewGenerator(testProfile(t), 4)
	batch := []trace.Sample{gen.Next(), gen.Next()}
	resps := make([]core.Response, 2)

	if err := c.ServeShardBatch(1, batch, resps[:1]); err == nil {
		t.Fatal("length mismatch must error")
	}
	if err := c.ServeShardBatch(99, batch, resps); err == nil {
		t.Fatal("out-of-range shard must error")
	}
	if err := c.FailReplica(1); err != nil {
		t.Fatal(err)
	}
	if err := c.ServeShardBatch(1, batch, resps); err != nil {
		t.Fatalf("batch to failed slot must redirect: %v", err)
	}
	for _, r := range resps {
		if r.Replica == 1 {
			t.Fatal("redirected batch reported the failed slot")
		}
	}
	if got := c.Stats().Served; got != 2 {
		t.Fatalf("served %d, want 2", got)
	}
}

// TestAsyncMatchesBarrierVirtualStats drives the same trace through a fleet
// with the periodic pipeline and through one with SyncEvery 0 that calls the
// SyncNow barrier at the same marks, and checks that every virtual-time
// statistic the determinism contract covers — Served, Violations,
// TrainSteps, sync counts, fleet clock, latency quantiles — is identical:
// the pipeline changes WHEN merged values land, never how time or latency
// accrue.
func TestAsyncMatchesBarrierVirtualStats(t *testing.T) {
	const every = 50 * time.Millisecond
	run := func(periodic bool) core.Stats {
		cfg := testConfig(t, 3)
		if periodic {
			cfg.SyncEvery = every
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gen := trace.MustNewGenerator(testProfile(t), 29)
		if periodic {
			for i := 0; i < 500; i++ {
				if _, err := c.Serve(gen.Next()); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			var synced int64
			serveSyncingAtMarks(t, c, gen, 500, every, &synced)
		}
		return c.Stats()
	}
	b := run(false)
	a := run(true)
	if b.Syncs == 0 {
		t.Fatal("fixture too small: no mark was crossed")
	}
	if a.Served != b.Served || a.Violations != b.Violations ||
		a.TrainSteps != b.TrainSteps || a.Syncs != b.Syncs ||
		a.VirtualTime != b.VirtualTime || a.P99 != b.P99 || a.P50 != b.P50 {
		t.Fatalf("pipeline and barrier diverge on virtual-time stats:\n  barrier:  served=%d viol=%d steps=%d syncs=%d vt=%v p99=%v\n  pipeline: served=%d viol=%d steps=%d syncs=%d vt=%v p99=%v",
			b.Served, b.Violations, b.TrainSteps, b.Syncs, b.VirtualTime, b.P99,
			a.Served, a.Violations, a.TrainSteps, a.Syncs, a.VirtualTime, a.P99)
	}
	for _, st := range []core.Stats{a, b} {
		if st.SyncComputeSeconds <= 0 || st.SyncPublishSeconds <= 0 {
			t.Fatalf("sync-cost split missing: %+v", st)
		}
		if math.Abs(st.SyncSeconds-(st.SyncComputeSeconds+st.SyncPublishSeconds)) > 1e-12 {
			t.Fatalf("SyncSeconds %v != compute %v + publish %v",
				st.SyncSeconds, st.SyncComputeSeconds, st.SyncPublishSeconds)
		}
	}
}

func TestPeriodicSyncTriggers(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.SyncEvery = 50 * time.Millisecond // a few requests of virtual time
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.MustNewGenerator(testProfile(t), 17)
	for i := 0; i < 400; i++ {
		if _, err := c.Serve(gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Syncs == 0 {
		t.Fatal("periodic sync never fired")
	}
	if st.SyncBytes == 0 || st.SyncSeconds <= 0 {
		t.Fatalf("sync accounting missing: %+v", st)
	}
}

// TestServeBatchMatchesSequential drives two identical clusters through the
// same trace — one sample-by-sample, one via ServeBatch — and pins the
// documented contract. The subtle hazard is routing: stateful routers
// (round-robin) advance a cursor per ShardOf call, so ServeBatch must route
// each sample exactly once; for hash and round-robin that reproduces the
// sequential replica assignment and latency exactly. Scores may differ in
// the last decimals around a sync epoch (the batch path picks crossed
// epochs up at run boundaries), and a load-aware router legitimately routes
// on batch-arrival backlog, so those are checked only as far as the
// contract promises.
func TestServeBatchMatchesSequential(t *testing.T) {
	for _, policy := range Policies() {
		t.Run(string(policy), func(t *testing.T) {
			build := func() *Cluster {
				cfg := testConfig(t, 3)
				r, err := NewRouter(policy)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Router = r
				cfg.SyncEvery = 500 * time.Millisecond
				c, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			seq, bat := build(), build()

			gen, err := trace.NewGenerator(testProfile(t), 7)
			if err != nil {
				t.Fatal(err)
			}
			const total, chunk = 240, 16
			samples := make([]trace.Sample, total)
			for i := range samples {
				samples[i] = gen.Next()
			}

			want := make([]core.Response, total)
			for i, s := range samples {
				if want[i], err = seq.Serve(s); err != nil {
					t.Fatalf("sequential serve %d: %v", i, err)
				}
			}
			got := make([]core.Response, total)
			for start := 0; start < total; start += chunk {
				end := start + chunk
				if err := bat.ServeBatch(samples[start:end], got[start:end]); err != nil {
					t.Fatalf("ServeBatch[%d:%d]: %v", start, end, err)
				}
			}

			deterministic := policy == RoundRobin || policy == Hash
			for i := range want {
				if deterministic {
					if want[i].Replica != got[i].Replica || want[i].Latency != got[i].Latency {
						t.Fatalf("%s: response %d diverged: sequential %+v, batched %+v",
							policy, i, want[i], got[i])
					}
					if d := want[i].Prob - got[i].Prob; d > 1e-2 || d < -1e-2 {
						t.Fatalf("%s: response %d score diverged beyond sync-boundary noise: %v vs %v",
							policy, i, want[i].Prob, got[i].Prob)
					}
				} else if got[i].Latency <= 0 {
					t.Fatalf("%s: response %d not served: %+v", policy, i, got[i])
				}
			}
			ss, bs := seq.Stats(), bat.Stats()
			if ss.Served != bs.Served {
				t.Fatalf("%s: Served diverged: %d vs %d", policy, ss.Served, bs.Served)
			}
			if deterministic && (ss.P99 != bs.P99 || ss.VirtualTime != bs.VirtualTime ||
				ss.TrainSteps != bs.TrainSteps || ss.Syncs != bs.Syncs) {
				t.Fatalf("%s: stats diverged:\nsequential: served=%d P99=%v virt=%v train=%d syncs=%d\nbatched:    served=%d P99=%v virt=%v train=%d syncs=%d",
					policy, ss.Served, ss.P99, ss.VirtualTime, ss.TrainSteps, ss.Syncs,
					bs.Served, bs.P99, bs.VirtualTime, bs.TrainSteps, bs.Syncs)
			}
		})
	}
}

// TestServeBatchValidatesSlots covers the length-mismatch guard.
func TestServeBatchValidatesSlots(t *testing.T) {
	cfg := testConfig(t, 2)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.NewGenerator(testProfile(t), 3)
	if err != nil {
		t.Fatal(err)
	}
	samples := []trace.Sample{gen.Next(), gen.Next()}
	if err := c.ServeBatch(samples, make([]core.Response, 1)); err == nil {
		t.Fatal("mismatched response slot count must be rejected")
	}
	if err := c.ServeBatch(nil, nil); err != nil {
		t.Fatalf("empty batch must be a no-op, got %v", err)
	}
}
