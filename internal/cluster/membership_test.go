package cluster

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"liveupdate/internal/core"
	"liveupdate/internal/fleet"
	"liveupdate/internal/trace"
)

// membershipModel is the reference for elastic membership: the member ID in
// each slot (-1 = empty), the next identity, and the three counters. It also
// follows catch-up provenance for the consistency check (see
// TestMembershipModel): every member carries the same adapter epoch here, so
// a joiner's donor is the lowest live ID.
type membershipModel struct {
	slots                []int
	nextID               int
	joins, leaves, fails int
	inherit              map[int]int  // joiner ID → donor ID, since the last SyncNow
	tainted              map[int]bool // members holding rows no merge republishes
}

// apply runs ev on the model and reports whether the cluster must accept it.
func (m *membershipModel) apply(ev fleet.Event) bool {
	inRange := ev.Arg >= 0 && ev.Arg < len(m.slots)
	switch ev.Action {
	case fleet.Kill, fleet.Leave:
		if !inRange || m.slots[ev.Arg] < 0 || m.active() == 1 {
			return false
		}
		m.slots[ev.Arg] = -1
		if ev.Action == fleet.Kill {
			m.fails++
		} else {
			m.leaves++
		}
	case fleet.Replace:
		if !inRange {
			return false
		}
		old := m.slots[ev.Arg]
		m.slots[ev.Arg] = -1
		donor := m.lowestID()
		if donor < 0 {
			donor = old // a sole member donates to its own replacement
		}
		if old >= 0 {
			m.fails++
		}
		m.admit(ev.Arg, donor)
	case fleet.Join:
		m.join()
	case fleet.Scale:
		if ev.Arg < 1 {
			return false
		}
		for m.active() < ev.Arg {
			m.join()
		}
		for s := len(m.slots) - 1; m.active() > ev.Arg; s-- {
			if m.slots[s] >= 0 {
				m.slots[s] = -1
				m.leaves++
			}
		}
	}
	return true
}

// sync settles catch-up provenance at a merge: a joiner copied its donor's
// live state, training not yet merged included, but only the donor's support
// carries those rows into the merge, so a joiner whose donor departed first
// (or was itself tainted) keeps rows no survivor has. It reports whether
// every live member is untainted, i.e. the merge must leave them consistent.
func (m *membershipModel) sync() bool {
	live := map[int]bool{}
	for _, id := range m.slots {
		live[id] = id >= 0
	}
	for j := 0; j < m.nextID; j++ { // donors precede their joiners
		if d, ok := m.inherit[j]; ok && (!live[d] || m.tainted[d]) {
			m.tainted[j] = true
		}
	}
	m.inherit = map[int]int{}
	for id := range m.tainted {
		if live[id] {
			return false
		}
	}
	return true
}

func (m *membershipModel) active() int {
	n := 0
	for _, id := range m.slots {
		if id >= 0 {
			n++
		}
	}
	return n
}

func (m *membershipModel) lowestID() int {
	low := -1
	for _, id := range m.slots {
		if id >= 0 && (low < 0 || id < low) {
			low = id
		}
	}
	return low
}

// join fills the first empty slot, else a new one.
func (m *membershipModel) join() {
	slot := len(m.slots)
	for s, id := range m.slots {
		if id < 0 {
			slot = s
			break
		}
	}
	if slot == len(m.slots) {
		m.slots = append(m.slots, -1)
	}
	m.admit(slot, m.lowestID())
}

func (m *membershipModel) admit(slot, donor int) {
	m.inherit[m.nextID] = donor
	m.slots[slot] = m.nextID
	m.nextID++
	m.joins++
}

// TestMembershipModel is a model-based oracle for elastic membership: a
// random walk of chaos events over all five actions — empty and
// out-of-range slots, removal of the last member and scale to zero included
// — with served runs and barrier syncs interleaved. After every step each
// slot's member identity, the shard capacity and the Stats membership
// counters must match membershipModel, a rejected event must change
// nothing, Served must count every request served so far, and a SyncNow
// must leave the replicas consistent.
//
// The one exception is a known gap of the sync protocol: a joiner copies its
// donor's live adapter state, training not yet merged included, but only the
// donor's support carries those rows into the next merge. When the donor
// departs before that merge, the joiner keeps rows no survivor has, and so
// does anyone who later catches up from it. The model follows that
// provenance (membershipModel.sync) and asserts consistency only while no
// such member is live; a probe that passes anyway clears the taint, since
// the probed rows then agree and only a new gap can split them again.
func TestMembershipModel(t *testing.T) {
	const steps = 200
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			cfg := testConfig(t, 1+int(seed%3))
			cfg.Base.LoRA.PruneThresh = 0 // see TestClusterMembershipUnderServing
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			model := &membershipModel{nextID: cfg.Replicas, inherit: map[int]int{}, tainted: map[int]bool{}}
			for i := 0; i < cfg.Replicas; i++ {
				model.slots = append(model.slots, i)
			}
			rng := rand.New(rand.NewPCG(seed, 37))
			gen := trace.MustNewGenerator(testProfile(t), seed)
			actions := []fleet.Action{fleet.Kill, fleet.Replace, fleet.Join, fleet.Leave, fleet.Scale}
			var served uint64
			split := 0
			batch := make([]trace.Sample, 8)
			resps := make([]core.Response, len(batch))
			for step := 0; step < steps; step++ {
				ev := fleet.Event{Action: actions[rng.IntN(len(actions))]}
				switch ev.Action {
				case fleet.Kill, fleet.Replace, fleet.Leave:
					ev.Arg = rng.IntN(len(model.slots)+3) - 1 // -1 and past capacity too
				case fleet.Scale:
					ev.Arg = rng.IntN(6) // 0 is refused
				case fleet.Join:
					if len(c.Members().active) >= 6 {
						ev = fleet.Event{Action: fleet.Scale, Arg: 2}
					}
				}
				if err, want := c.ApplyChaos(ev), model.apply(ev); (err == nil) != want {
					t.Fatalf("step %d: %s %d: err=%v, model accepts=%v", step, ev.Action, ev.Arg, err, want)
				}

				n := rng.IntN(len(batch) + 1)
				for i := range batch[:n] {
					batch[i] = gen.Next()
				}
				if err := c.ServeShardBatch(rng.IntN(c.NumShards()), batch[:n], resps[:n]); err != nil {
					t.Fatalf("step %d: serve: %v", step, err)
				}
				served += uint64(n)

				if c.NumShards() != len(model.slots) {
					t.Fatalf("step %d: %d shards, model %d", step, c.NumShards(), len(model.slots))
				}
				for s, id := range model.slots {
					m := c.Members().at(s)
					if (m == nil) != (id < 0) || (m != nil && m.ID != id) {
						t.Fatalf("step %d: slot %d holds %+v, model ID %d", step, s, m, id)
					}
				}
				st := c.Stats()
				if active := model.active(); st.Members != active || st.Joins != model.joins || st.Leaves != model.leaves || st.Fails != model.fails {
					t.Fatalf("step %d: members/joins/leaves/fails = %d/%d/%d/%d, model %d/%d/%d/%d", step,
						st.Members, st.Joins, st.Leaves, st.Fails, model.active(), model.joins, model.leaves, model.fails)
				}
				if st.Served != served {
					t.Fatalf("step %d: Served = %d, %d requests served", step, st.Served, served)
				}
				if step%5 == 4 {
					if _, err := c.SyncNow(); err != nil {
						t.Fatal(err)
					}
					consistent := c.ReplicasConsistent(30)
					if model.sync() && !consistent {
						t.Fatalf("step %d: replicas inconsistent after SyncNow", step)
					}
					if consistent {
						model.tainted = map[int]bool{}
					} else {
						split++
					}
				}
			}
			t.Logf("%d of %d syncs left the replicas split by a departed donor's unmerged rows", split, steps/5)
		})
	}
}

func TestFailFoldsRetiredStats(t *testing.T) {
	c, err := New(testConfig(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.MustNewGenerator(testProfile(t), 11)
	for i := 0; i < 40; i++ {
		if _, err := c.ServeShard(0, gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	clock := c.Replica(0).Clock.Now()
	if clock <= 0 {
		t.Fatal("fixture did not advance the clock")
	}
	if err := c.FailReplica(0); err != nil {
		t.Fatal(err)
	}
	if c.retired.served != 40 || math.Float64frombits(c.retiredClock.Load()) != clock {
		t.Fatalf("retired fold: %+v, clock %v (want served=40 clock=%v)",
			c.retired, math.Float64frombits(c.retiredClock.Load()), clock)
	}
	// The survivor never served: the fleet clock is the departed member's.
	if c.VirtualNow() != clock {
		t.Fatalf("fleet clock %v ran backward across the failure (retired %v)", c.VirtualNow(), clock)
	}
	if st := c.Stats(); st.Served != 40 {
		t.Fatalf("merged Served=%d, want the folded 40", st.Served)
	}
}

// TestCatchUpMatchesDonor is the catch-up contract: a joiner's effective
// embeddings equal the donor's, row for row, and the transfer is billed to
// the sync clock.
func TestCatchUpMatchesDonor(t *testing.T) {
	c, err := New(testConfig(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	donor := c.Replica(0)
	gen := trace.MustNewGenerator(testProfile(t), 13)
	for i := 0; i < 200; i++ { // train: hot LoRA rows diverge from base
		if _, err := c.ServeShard(0, gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.ApplyChaos(fleet.Event{Action: fleet.Join}); err != nil {
		t.Fatal(err)
	}
	joiner := c.Replica(2)
	st := c.Stats()
	if st.CatchUpBytes == 0 || st.CatchUpSeconds <= 0 {
		t.Fatalf("catch-up bill empty: bytes=%d seconds=%v", st.CatchUpBytes, st.CatchUpSeconds)
	}
	if c.syncClock.Now() != st.CatchUpSeconds {
		t.Fatalf("sync clock %v, want catch-up charge %v", c.syncClock.Now(), st.CatchUpSeconds)
	}
	// Members 0 and 1 are both at epoch -1; ties break to the lowest ID, so
	// the trained member 0 donates — a catch-up from the untrained member 1
	// would miss its hot rows.
	p := testProfile(t)
	ref := make([]float64, p.EmbeddingDim)
	got := make([]float64, p.EmbeddingDim)
	for table := 0; table < p.NumTables; table++ {
		for id := int32(0); id < int32(p.TableSize); id++ {
			donor.LoRA.EffectiveRow(table, id, ref)
			joiner.LoRA.EffectiveRow(table, id, got)
			for d := range ref {
				if ref[d] != got[d] {
					t.Fatalf("table %d id %d dim %d: joiner %v != donor %v", table, id, d, got[d], ref[d])
				}
			}
		}
	}
	if joiner.AdapterEpoch() != donor.AdapterEpoch() {
		t.Fatalf("joiner epoch %d != donor %d", joiner.AdapterEpoch(), donor.AdapterEpoch())
	}
}
