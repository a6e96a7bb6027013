package cluster

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"liveupdate/internal/core"
	"liveupdate/internal/emt"
	"liveupdate/internal/fleet"
	"liveupdate/internal/lora"
	"liveupdate/internal/trace"
)

// Elastic membership. Each replica is a member with two identities:
//
//   - ID: a stable, monotonically assigned identity that is never reused.
//     IDs are the priority ranks of the sync protocol (collective's
//     priority merge) and the anchor points of the consistent-hash ring, so
//     a member's routing arcs and merge priority survive other members'
//     churn.
//   - Slot: the member's shard-lane index. Slots are the unit a load driver
//     shards on; a departed member leaves its slot empty (requests redirect)
//     until a join or replace refills it. Slot capacity only grows, so lane
//     ownership in a concurrent driver stays stable.
//
// The membership is published as an immutable View behind one atomic
// pointer. Serving paths load the View lock-free; every mutation builds a
// fresh View (with its consistent-hash ring prebuilt) and swaps the pointer
// — routers are "rebuilt" by construction, never locked.
//
// A joining replica is brought to the fleet's current state from a donor
// (the active member with the freshest published adapter epoch): the
// donor's base embedding tables travel as an emt checkpoint (serialized and
// re-read through the real WriteCheckpoint/ReadCheckpoint path) and its full
// LoRA adapter state travels as a lora snapshot that the joiner installs
// with Publish at the donor's epoch. Both transfers are billed to the
// virtual sync clock at the fabric's link parameters, like any other sync
// traffic. Only the donor's per-replica lock is held during the export — the
// fleet keeps serving.

// member is one serving replica in the fleet.
type member struct {
	ID   int // stable identity; assigned at admission, never reused
	Slot int // shard-lane index; fixed for the member's lifetime
	Sys  *core.System
}

// View is an immutable membership snapshot, safe from any goroutine; callers
// must not mutate the returned slices.
type View struct {
	slots   []*member      // index = slot; nil = empty (failed/left)
	active  []*member      // occupied slots, in slot order
	systems []*core.System // active members' systems, same order as active
	ring    *ring          // consistent-hash ring over active members
}

// ActiveSystems returns the live members' systems in slot order.
func (v *View) ActiveSystems() []*core.System { return v.systems }

// at returns the member in slot i, or nil when the slot is empty or out
// of range.
func (v *View) at(i int) *member {
	if i < 0 || i >= len(v.slots) {
		return nil
	}
	return v.slots[i]
}

// redirect returns the live member that absorbs traffic aimed at an empty
// slot: the next occupied slot scanning upward with wrap-around. It returns
// nil only when the view has no active members.
func (v *View) redirect(slot int) *member {
	n := len(v.slots)
	if n == 0 || len(v.active) == 0 {
		return nil
	}
	if slot < 0 {
		slot = 0
	}
	for i := 1; i <= n; i++ {
		if m := v.slots[(slot+i)%n]; m != nil {
			return m
		}
	}
	return nil
}

// retired is the folded statistical contribution of departed members, so
// fleet-level counters (requests served, violations, training steps) survive
// the members that produced them. Latency and hit-ratio sums are
// request-weighted. Departed members' latency windows are not retained, so
// fleet quantiles cover live members only. The highest clock a departed
// member reached lives in Cluster.retiredClock, which the serve path reads
// lock-free.
type retired struct {
	served      uint64
	violations  uint64
	trainSteps  uint64
	fullSyncs   uint64
	latencySum  float64 // Σ MeanLatency·Served
	hitInfSum   float64 // Σ InferenceHitRatio·Served
	hitTrainSum float64 // Σ TrainingHitRatio·Served
}

// add tallies one member's stats into r: fold for a departing member, and
// Stats for each live one on a copy.
func (r *retired) add(rs core.Stats) {
	r.served += rs.Served
	r.violations += rs.Violations
	r.trainSteps += rs.TrainSteps
	r.fullSyncs += rs.FullSyncs
	r.latencySum += rs.MeanLatency * float64(rs.Served)
	// Weight cache hit ratios by requests served, like MeanLatency: an
	// unweighted mean would let a nearly idle replica's ratio swamp the
	// workload-level truth under skewed routing.
	r.hitInfSum += rs.InferenceHitRatio * float64(rs.Served)
	r.hitTrainSum += rs.TrainingHitRatio * float64(rs.Served)
}

// spawn builds a fresh replica from the fleet's base options (same seed, so
// the same Day-0 checkpoint as the seed fleet).
func (c *Cluster) spawn() (*core.System, error) {
	opts := c.cfg.Base
	// All replicas must hold structurally compatible LoRA factors for the
	// merge; see Config.Base.
	opts.LoRA.DisableRankAdapt = true
	return core.New(opts)
}

// install publishes a fresh view built from slots. Callers hold fleetMu for
// write (except New, which has exclusive access).
func (c *Cluster) install(slots []*member) {
	active := make([]*member, 0, len(slots))
	systems := make([]*core.System, 0, len(slots))
	for _, m := range slots {
		if m != nil {
			active = append(active, m)
			systems = append(systems, m.Sys)
		}
	}
	c.view.Store(&View{slots: slots, active: active, systems: systems, ring: newRing(active)})
}

// membershipOp runs a membership mutation holding syncMu, so it is
// mutually exclusive with every merge: each pipeline epoch, SyncNow, and
// consistency probes all hold syncMu for their whole snapshot→merge→publish
// span. A joiner's catch-up export and install therefore cannot interleave
// with a publish — it can never miss a merged epoch whose rows would not
// recur in later supports.
// Serving never takes syncMu, so requests flow throughout; an epoch kicked
// while the mutation runs simply merges afterwards, over the new view.
func (c *Cluster) membershipOp(f func() error) error {
	c.syncMu.Lock()
	defer c.syncMu.Unlock()
	return f()
}

// FailReplica kills the replica in slot — the crash path. The member is
// excluded from routing immediately (the next view load), its lane
// redirects, and its statistics fold into the fleet totals. The last active
// replica cannot be failed.
func (c *Cluster) FailReplica(slot int) error {
	return c.membershipOp(func() error { return c.remove(slot, &c.fails) })
}

// ReplaceReplica fails the replica in slot (if still present) and admits a
// freshly caught-up replacement into the same slot in one membership
// change. The replacement catches up from the freshest survivor; with no
// survivor (a single-member fleet) the departing member itself donates —
// its state is the fleet state. Replacing an already-empty slot just
// refills it. It returns the slot served by the replacement.
func (c *Cluster) ReplaceReplica(slot int) (int, error) {
	err := c.membershipOp(func() error {
		v := c.view.Load()
		if slot < 0 || slot >= len(v.slots) {
			return fmt.Errorf("cluster: replace slot %d out of range (capacity %d)", slot, len(v.slots))
		}
		old := v.slots[slot]
		donor := c.donor(old)
		if donor == nil {
			donor = old
		}
		return c.admit(slot, donor, old)
	})
	if err != nil {
		return -1, err
	}
	return slot, nil
}

// Scale grows or shrinks the active fleet to n replicas: joins fill empty
// slots first (then extend capacity), shrinks retire the highest slots
// gracefully.
func (c *Cluster) Scale(n int) error {
	if n < 1 {
		return fmt.Errorf("cluster: cannot scale to %d members", n)
	}
	return c.membershipOp(func() error {
		for len(c.view.Load().active) < n {
			if err := c.join(); err != nil {
				return err
			}
		}
		for v := c.view.Load(); len(v.active) > n; v = c.view.Load() {
			if err := c.remove(v.active[len(v.active)-1].Slot, &c.leaves); err != nil {
				return err
			}
		}
		return nil
	})
}

// ApplyChaos applies one scripted membership event. The load driver calls
// this at drained checkpoints; it is also a convenient programmatic entry
// point for the same event grammar the -chaos flags accept.
func (c *Cluster) ApplyChaos(ev fleet.Event) error {
	if err := ev.Validate(); err != nil {
		return err
	}
	switch ev.Action {
	case fleet.Kill:
		return c.FailReplica(ev.Arg)
	case fleet.Replace:
		_, err := c.ReplaceReplica(ev.Arg)
		return err
	case fleet.Join:
		return c.membershipOp(c.join)
	case fleet.Leave:
		return c.membershipOp(func() error { return c.remove(ev.Arg, &c.leaves) })
	case fleet.Scale:
		return c.Scale(ev.Arg)
	}
	return fmt.Errorf("cluster: unknown chaos action %q", ev.Action)
}

// join admits a fresh replica into the first empty slot (or a new one),
// caught up from the freshest active donor. Callers hold syncMu.
func (c *Cluster) join() error {
	slots := c.view.Load().slots
	slot := len(slots)
	for i, m := range slots {
		if m == nil {
			slot = i
			break
		}
	}
	return c.admit(slot, c.donor(nil), nil)
}

// admit spawns a replica, catches it up from donor (nil: it keeps its fresh
// state) and installs it in slot, which is empty, one past the capacity, or
// held by old — the member a replace fails in the same commit. The spawn and
// the catch-up run before the commit, so serving stalls only for the fold
// and the view swap. Callers hold syncMu.
func (c *Cluster) admit(slot int, donor, old *member) error {
	sys, err := c.spawn()
	if err != nil {
		return fmt.Errorf("cluster: spawn replica: %w", err)
	}
	var cuBytes int64
	var cuSecs float64
	if donor != nil {
		if cuBytes, cuSecs, err = c.catchUp(donor, sys); err != nil {
			return err
		}
	}
	slots := append([]*member(nil), c.view.Load().slots...)
	if slot == len(slots) {
		slots = append(slots, nil)
	}
	slots[slot] = &member{ID: c.nextID, Slot: slot, Sys: sys}
	c.nextID++
	c.fleetMu.Lock()
	if old != nil {
		c.fold(old)
		c.fails.Add(1)
	}
	c.joins.Add(1)
	c.catchUpBytes += cuBytes
	c.catchUpSeconds += cuSecs
	c.install(slots)
	c.fleetMu.Unlock()
	return nil
}

// remove empties a slot, folds the departing member's stats and counts the
// departure in counter (leaves or fails). The fold, the count and the view
// swap share one fleetMu write section, so no in-flight request can finish
// on the member between them (its count would be lost from both the retired
// aggregate and the live sums), and Stats never sees one without the
// others. The last active member cannot be removed. Callers hold syncMu.
func (c *Cluster) remove(slot int, counter *atomic.Int64) error {
	v := c.view.Load()
	m := v.at(slot)
	if m == nil {
		return fmt.Errorf("cluster: no member in slot %d (capacity %d)", slot, len(v.slots))
	}
	if len(v.active) <= 1 {
		return fmt.Errorf("cluster: cannot remove the last active member (slot %d)", slot)
	}
	slots := append([]*member(nil), v.slots...)
	slots[slot] = nil
	c.fleetMu.Lock()
	c.fold(m)
	counter.Add(1)
	c.install(slots)
	c.fleetMu.Unlock()
	return nil
}

// fold accumulates a departing member's stats into the retired aggregate.
// Callers hold fleetMu for write.
func (c *Cluster) fold(m *member) {
	rs := m.Sys.Stats()
	c.retired.add(rs)
	if rs.VirtualTime > math.Float64frombits(c.retiredClock.Load()) {
		c.retiredClock.Store(math.Float64bits(rs.VirtualTime))
	}
}

// donor picks the catch-up donor among the active members other than skip
// (nil skips no one): the highest published adapter epoch, ties broken by
// the lowest (longest-lived) ID. Callers hold syncMu.
func (c *Cluster) donor(skip *member) *member {
	var donor *member
	var donorEpoch int64
	for _, m := range c.view.Load().active {
		if m == skip {
			continue
		}
		e := m.Sys.AdapterEpoch()
		if donor == nil || e > donorEpoch || (e == donorEpoch && m.ID < donor.ID) {
			donor, donorEpoch = m, e
		}
	}
	return donor
}

// catchUp transfers the donor's base checkpoint and full LoRA state into
// sys, bills the virtual sync clock, and returns the transfer's bytes and
// seconds. Only the donor's per-replica lock is held, and only for the
// O(state) export.
func (c *Cluster) catchUp(donor *member, sys *core.System) (int64, float64, error) {
	var buf bytes.Buffer
	donor.Sys.Lock()
	err := donor.Sys.Base.WriteCheckpoint(&buf)
	var full []lora.TableState
	var epoch int64
	if err == nil {
		full = donor.Sys.LoRA.ExportFull()
		epoch = donor.Sys.LoRA.Epoch()
	}
	donor.Sys.Unlock()
	if err != nil {
		return 0, 0, fmt.Errorf("cluster: donor %d checkpoint: %w", donor.ID, err)
	}
	n := int64(buf.Len()) + lora.PayloadBytes(full) // checkpoint size read before ReadCheckpoint drains buf
	restored, err := emt.ReadCheckpoint(&buf)
	if err != nil {
		return 0, 0, fmt.Errorf("cluster: restore checkpoint: %w", err)
	}
	sys.Base.CopyWeightsFrom(restored)
	sys.LoRA.Publish(full, epoch)
	// Point-to-point transfer: one link latency per payload leg, bytes at
	// line rate — the same pricing model the sync collective uses.
	secs := 2*linkLatencySec + float64(n)/linkBandwidthBps
	c.syncClock.Advance(secs)
	return n, secs, nil
}

// Consistent-hash ring over the active members of a View. Each member owns
// ringVNodes pseudo-random points on a 64-bit ring; a key is served by the
// first member point at or clockwise of the key's hash. Membership changes
// therefore only remap the keys in the arcs a member's points cover —
// roughly a 1/N share per single join or leave — instead of reshuffling the
// whole keyspace the way `hash(key) mod N` does.

// ringVNodes is the per-member virtual-node count: enough points that a
// member's keyspace share concentrates near 1/N without making ring builds
// (one per membership change) expensive.
const ringVNodes = 64

type ringPoint struct {
	hash uint64
	m    *member
}

type ring struct {
	points []ringPoint // sorted by hash
}

// newRing places ringVNodes points per member. Point positions depend only on
// the member's stable ID, never on its slot or the current fleet size, so a
// member's arcs survive other members' churn untouched.
func newRing(members []*member) *ring {
	r := &ring{points: make([]ringPoint, 0, len(members)*ringVNodes)}
	for _, m := range members {
		base := uint64(m.ID) * 0x9e3779b97f4a7c15
		for v := 0; v < ringVNodes; v++ {
			r.points = append(r.points, ringPoint{hash: mix64(base + uint64(v)), m: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Ties (astronomically rare) break on the stable member ID so the
		// ring layout is identical no matter the build order.
		return r.points[i].m.ID < r.points[j].m.ID
	})
	return r
}

// lookup returns the member owning hash h, or nil on an empty ring.
func (r *ring) lookup(h uint64) *member {
	if r == nil || len(r.points) == 0 {
		return nil
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: keys past the last point belong to the first
	}
	return r.points[i].m
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit mix
// for placing virtual nodes.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// sampleKey hashes a request's sparse feature ids (FNV-1a over (table, id)
// pairs) to its ring key: identical sparse feature sets always map to the
// same key, giving the embedding locality the hash routing policy exists for.
func sampleKey(s trace.Sample) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint32) {
		for shift := 0; shift < 32; shift += 8 {
			h ^= uint64(byte(v >> shift))
			h *= prime64
		}
	}
	for t, ids := range s.Sparse {
		mix(uint32(t))
		for _, id := range ids {
			mix(uint32(id))
		}
	}
	return h
}
