package fleet_test

import (
	"testing"

	"liveupdate/internal/cluster"
	"liveupdate/internal/core"
	"liveupdate/internal/fleet"
	"liveupdate/internal/trace"
)

// These tests pin what each chaos action means once a cluster applies it:
// slot reuse, fresh replicas, capacity growth, refusals and the counters in
// the fleet Stats. The membership itself lives in internal/cluster.

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

func testCluster(t testing.TB, n int, policy cluster.Policy) *cluster.Cluster {
	t.Helper()
	opts := core.DefaultOptions(testProfile(t), 42)
	opts.TrainInterval = 4
	r, err := cluster.NewRouter(policy)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(cluster.Config{Base: opts, Replicas: n, Router: r})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// run parses a chaos script and applies its events in order.
func run(t testing.TB, c *cluster.Cluster, script string) {
	t.Helper()
	s, err := fleet.ParseScript(script)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range s {
		if err := c.ApplyChaos(ev); err != nil {
			t.Fatalf("%v: %v", ev, err)
		}
	}
}

// serveSome pumps n requests through the replica in slot so it accrues
// clock, stats and LoRA training state.
func serveSome(t testing.TB, c *cluster.Cluster, slot int, seed uint64, n int) {
	t.Helper()
	gen := trace.MustNewGenerator(testProfile(t), seed)
	for i := 0; i < n; i++ {
		if _, err := c.ServeShard(slot, gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
}

func checkStats(t testing.TB, c *cluster.Cluster, members, joins, leaves, fails int) {
	t.Helper()
	st := c.Stats()
	if st.Members != members || st.Joins != joins || st.Leaves != leaves || st.Fails != fails {
		t.Fatalf("stats: members=%d joins=%d leaves=%d fails=%d, want %d %d %d %d",
			st.Members, st.Joins, st.Leaves, st.Fails, members, joins, leaves, fails)
	}
}

// sameRows reports whether two replicas hold identical effective embeddings.
func sameRows(t testing.TB, a, b *core.System) bool {
	t.Helper()
	p := testProfile(t)
	ra := make([]float64, p.EmbeddingDim)
	rb := make([]float64, p.EmbeddingDim)
	for table := 0; table < p.NumTables; table++ {
		for id := int32(0); id < int32(p.TableSize); id++ {
			a.LoRA.EffectiveRow(table, id, ra)
			b.LoRA.EffectiveRow(table, id, rb)
			for d := range ra {
				if ra[d] != rb[d] {
					return false
				}
			}
		}
	}
	return true
}

func TestMembershipLifecycle(t *testing.T) {
	c := testCluster(t, 3, cluster.RoundRobin)
	seed := map[*core.System]bool{}
	for i := 0; i < 3; i++ {
		if c.Replica(i) == nil || seed[c.Replica(i)] {
			t.Fatalf("seed slot %d: replica %p", i, c.Replica(i))
		}
		seed[c.Replica(i)] = true
	}
	checkStats(t, c, 3, 0, 0, 0)

	// Kill the middle member: its slot empties, capacity stays.
	run(t, c, "@0s kill 1")
	if c.NumShards() != 3 || c.Replica(1) != nil {
		t.Fatalf("after kill: shards=%d slot1=%p", c.NumShards(), c.Replica(1))
	}
	checkStats(t, c, 2, 0, 0, 1)
	if err := c.ApplyChaos(fleet.Event{Action: fleet.Kill, Arg: 1}); err == nil {
		t.Fatal("killing an empty slot must error")
	}

	// Join refills the empty slot with a fresh replica caught up from a donor.
	run(t, c, "@0s join")
	if m := c.Replica(1); m == nil || seed[m] {
		t.Fatalf("join must land a fresh replica in slot 1, got %p", m)
	}
	if c.NumShards() != 3 || c.Stats().CatchUpBytes == 0 {
		t.Fatalf("join: shards=%d catch-up bytes=%d", c.NumShards(), c.Stats().CatchUpBytes)
	}

	// A second join extends capacity.
	run(t, c, "@0s join")
	if c.NumShards() != 4 || c.Replica(3) == nil {
		t.Fatalf("join beyond capacity: shards=%d slot3=%p", c.NumShards(), c.Replica(3))
	}
	checkStats(t, c, 4, 2, 0, 1)
}

func TestLastMemberCannotBeRemoved(t *testing.T) {
	c := testCluster(t, 1, cluster.RoundRobin)
	only := c.Replica(0)
	for _, ev := range []fleet.Event{
		{Action: fleet.Kill, Arg: 0},
		{Action: fleet.Leave, Arg: 0},
		{Action: fleet.Scale, Arg: 0},
	} {
		if err := c.ApplyChaos(ev); err == nil {
			t.Fatalf("%v on the last member must be refused", ev)
		}
	}
	if c.Replica(0) != only || c.NumShards() != 1 {
		t.Fatalf("a refused event changed the fleet: slot0=%p shards=%d", c.Replica(0), c.NumShards())
	}
	checkStats(t, c, 1, 0, 0, 0)
}

func TestReplaceReusesSlotWithFreshIdentity(t *testing.T) {
	c := testCluster(t, 3, cluster.RoundRobin)
	old := c.Replica(2)
	serveSome(t, c, 2, 17, 40) // train: the old member's hot rows diverge
	if sameRows(t, old, c.Replica(0)) {
		t.Fatal("fixture did not make the old member diverge from the survivors")
	}
	run(t, c, "@0s replace 2")
	m := c.Replica(2)
	if m == nil || m == old {
		t.Fatalf("replacement in slot 2 is %p (old %p)", m, old)
	}
	// The replacement catches up from a survivor, not the corpse: ties on
	// adapter epoch break to the lowest ID, the member in slot 0.
	if !sameRows(t, m, c.Replica(0)) {
		t.Fatal("replacement does not match the surviving donor's embeddings")
	}
	checkStats(t, c, 3, 1, 0, 1)
	if got := c.Stats().Served; got != 40 {
		t.Fatalf("old member's stats not folded: served %d, want 40", got)
	}

	// Replacing an empty slot refills it without another fail.
	run(t, c, "@0s kill 1; @0s replace 1")
	if c.Replica(1) == nil {
		t.Fatal("replace left slot 1 empty")
	}
	checkStats(t, c, 3, 2, 0, 2)
}

func TestScale(t *testing.T) {
	c := testCluster(t, 2, cluster.RoundRobin)
	run(t, c, "@0s scale 5")
	if c.NumShards() != 5 {
		t.Fatalf("shards %d after scale 5", c.NumShards())
	}
	checkStats(t, c, 5, 3, 0, 0)

	run(t, c, "@0s scale 2")
	if c.NumShards() != 5 {
		t.Fatalf("shards %d after scale down: capacity must not shrink", c.NumShards())
	}
	for slot := 2; slot < 5; slot++ {
		if c.Replica(slot) != nil {
			t.Fatalf("scale down must retire the highest slots; slot %d still active", slot)
		}
	}
	checkStats(t, c, 2, 3, 3, 0)

	// Scaling up again fills the first free slots before extending capacity.
	run(t, c, "@0s scale 3")
	if c.NumShards() != 5 || c.Replica(2) == nil {
		t.Fatalf("scale 3: shards=%d slot2=%p", c.NumShards(), c.Replica(2))
	}
	checkStats(t, c, 3, 4, 3, 0)
}

func TestRedirect(t *testing.T) {
	c := testCluster(t, 3, cluster.RoundRobin)
	gen := trace.MustNewGenerator(testProfile(t), 19)
	servedBy := func(slot int) int {
		t.Helper()
		resp, err := c.ServeShard(slot, gen.Next())
		if err != nil {
			t.Fatal(err)
		}
		return resp.Replica
	}
	run(t, c, "@0s kill 1")
	if got := servedBy(1); got != 2 {
		t.Fatalf("traffic for slot 1 served by %d, want slot 2", got)
	}
	run(t, c, "@0s kill 2")
	if got := servedBy(1); got != 0 {
		t.Fatalf("traffic for slot 1 after a double failure served by %d, want wrap to slot 0", got)
	}
}

// TestRingRemapFraction is the consistent-hash contract: removing one of N
// members moves exactly the keys that member owned (≈1/N) and leaves every
// other key's assignment untouched; a subsequent join only claims keys for
// the newcomer.
func TestRingRemapFraction(t *testing.T) {
	const n = 5
	c := testCluster(t, n, cluster.Hash)
	gen := trace.MustNewGenerator(testProfile(t), 23)
	const keys = 4000
	samples := make([]trace.Sample, keys)
	before := make([]int, keys)
	for i := range samples {
		samples[i] = gen.Next()
		before[i] = c.ShardOf(samples[i])
	}

	run(t, c, "@0s kill 2")
	moved := 0
	for i, s := range samples {
		after := c.ShardOf(s)
		if after == 2 {
			t.Fatalf("key %d routed to the failed member", i)
		}
		if before[i] == 2 {
			moved++ // orphaned keys must move somewhere
			continue
		}
		if after != before[i] {
			t.Fatalf("key %d: survivor assignment moved %d → %d on an unrelated failure",
				i, before[i], after)
		}
	}
	// The failed member's share should be near 1/N (vnode placement jitters
	// it; 2/N is a generous ceiling, and it must not be zero).
	if moved == 0 || moved > 2*keys/n {
		t.Fatalf("kill remapped %d/%d keys, want ≈%d (≤%d)", moved, keys, keys/n, 2*keys/n)
	}

	// Join: the newcomer refills slot 2 under a fresh identity, so only its
	// own share moves, and every moved key lands on it.
	base := make([]int, keys)
	for i, s := range samples {
		base[i] = c.ShardOf(s)
	}
	run(t, c, "@0s join")
	claimed := 0
	for i, s := range samples {
		after := c.ShardOf(s)
		if after == base[i] {
			continue
		}
		if after != 2 {
			t.Fatalf("key %d moved %d → %d, but only the joiner (slot 2) may claim keys",
				i, base[i], after)
		}
		claimed++
	}
	if claimed == 0 || claimed > 2*keys/n {
		t.Fatalf("join remapped %d/%d keys, want ≈%d (≤%d)", claimed, keys, keys/n, 2*keys/n)
	}
}
