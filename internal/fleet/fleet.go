// Package fleet implements elastic membership for a LiveUpdate replica
// fleet: a controller that owns a dynamic set of serving replicas and
// supports Join, Leave, Fail, Replace, and Scale at runtime, while serving
// continues on the survivors.
//
// # Membership model
//
// Each replica is a Member with two identities:
//
//   - ID: a stable, monotonically assigned identity that is never reused.
//     IDs are the priority ranks of the sync protocol (collective's
//     priority merge) and the anchor points of the consistent-hash
//     ring, so a member's routing arcs and merge priority survive other
//     members' churn.
//   - Slot: the member's shard-lane index. Slots are the unit a load
//     driver shards on; a departed member leaves its slot empty (requests
//     redirect) until a join or replace refills it. Slot capacity only
//     grows, so lane ownership in a concurrent driver stays stable.
//
// The membership is published as an immutable View behind one atomic
// pointer. Serving paths load the View lock-free; every mutation builds a
// fresh View (with its consistent-hash ring prebuilt) and swaps the
// pointer — routers are "rebuilt" by construction, never locked.
//
// # Catch-up
//
// A joining replica is brought to the fleet's current state from a donor
// (the active member with the freshest published adapter epoch): the
// donor's base embedding tables travel as an emt checkpoint (serialized
// and re-read through the real WriteCheckpoint/ReadCheckpoint path) and
// its full LoRA adapter state travels as a lora snapshot that the joiner
// installs with Publish at the donor's epoch. Both transfers are billed to
// the virtual sync clock at the configured link parameters, like any other
// sync traffic. Only the donor's per-replica lock is held during the
// export — the fleet keeps serving.
package fleet

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"liveupdate/internal/core"
	"liveupdate/internal/emt"
	"liveupdate/internal/lora"
	"liveupdate/internal/simnet"
)

// Member is one serving replica in the fleet.
type Member struct {
	ID   int // stable identity; assigned at admission, never reused
	Slot int // shard-lane index; fixed for the member's lifetime
	Sys  *core.System
}

// View is an immutable membership snapshot. All accessors are safe from any
// goroutine; callers must not mutate the returned slices.
type View struct {
	// Version counts membership changes; it bumps on every swap.
	Version int64

	slots   []*Member      // index = slot; nil = empty (failed/left)
	active  []*Member      // occupied slots, in slot order
	systems []*core.System // active members' systems, same order as active
	ring    *ring          // consistent-hash ring over active members
}

// NumSlots returns the shard-lane capacity (monotone: never shrinks).
func (v *View) NumSlots() int { return len(v.slots) }

// NumActive returns the number of live members.
func (v *View) NumActive() int { return len(v.active) }

// Active returns the live members in slot order.
func (v *View) Active() []*Member { return v.active }

// ActiveSystems returns the live members' systems, aligned with Active.
func (v *View) ActiveSystems() []*core.System { return v.systems }

// Member returns the member in slot i, or nil when the slot is empty or out
// of range.
func (v *View) Member(i int) *Member {
	if i < 0 || i >= len(v.slots) {
		return nil
	}
	return v.slots[i]
}

// Route returns the ring owner of key h (nil only on an empty view).
func (v *View) Route(h uint64) *Member { return v.ring.lookup(h) }

// Redirect returns the live member that absorbs traffic aimed at an empty
// slot: the next occupied slot scanning upward with wrap-around. It returns
// nil only when the view has no active members.
func (v *View) Redirect(slot int) *Member {
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

// Config configures a membership controller.
type Config struct {
	// Spawn builds a fresh replica (same base options — and thus the same
	// Day-0 checkpoint — as the seed fleet). Required for Join/Replace/
	// Scale-up; a controller without it can still Fail and Leave.
	Spawn func() (*core.System, error)

	// BandwidthBps and LatencySec price the catch-up transfers. Zero values
	// default to 100 GbE / 1 ms, matching the sync fabric defaults.
	BandwidthBps float64
	LatencySec   float64

	// SyncClock, when set, is advanced by every catch-up transfer's virtual
	// duration — the same clock the periodic sync protocol bills.
	SyncClock *simnet.Clock

	// InstallBarrier, when set, wraps every membership commit — the fold of
	// a departing member's statistics plus the atomic view swap — so the
	// owner can exclude in-flight request serving around it. The cluster
	// passes a function that briefly holds its fleet-wide write lock: a
	// request then can neither finish on a member whose statistics were
	// already folded (its count would vanish from the fleet totals) nor be
	// routed against a view that is mid-replacement. The barrier section is
	// O(members) — folding is a stats read, the swap one atomic store — so
	// serving stalls for microseconds, never for a catch-up.
	InstallBarrier func(commit func())
}

// CatchUp describes one joining replica's state transfer.
type CatchUp struct {
	DonorID         int   // member the state came from (-1: no donor, fresh state)
	Epoch           int64 // adapter epoch the joiner reached (-1 before any sync)
	CheckpointBytes int64 // serialized base-table checkpoint size
	LoRABytes       int64 // full adapter-state payload size
	Seconds         float64
}

// bytes returns the total transfer volume.
func (cu CatchUp) bytes() int64 { return cu.CheckpointBytes + cu.LoRABytes }

// Stats is a point-in-time accounting snapshot of the controller.
type Stats struct {
	Members int // active members
	Joins   int // admissions after the seed fleet (join, replace, scale-up)
	Leaves  int // graceful departures (leave, scale-down)
	Fails   int // abrupt exclusions (fail, the fail half of replace)

	CatchUpBytes   int64   // cumulative catch-up transfer volume
	CatchUpSeconds float64 // cumulative virtual catch-up time
}

// Retired is the folded statistical contribution of departed members, so
// fleet-level counters (requests served, violations, training steps) survive
// the members that produced them. Latency and hit-ratio sums are
// request-weighted, mirroring how cluster stats merge live replicas;
// departed members' latency windows are not retained, so fleet quantiles
// cover live members only.
type Retired struct {
	Served     uint64
	Violations uint64
	TrainSteps uint64
	FullSyncs  uint64

	LatencySum  float64 // Σ MeanLatency·Served
	HitInfSum   float64 // Σ InferenceHitRatio·Served
	HitTrainSum float64 // Σ TrainingHitRatio·Served
	MaxClock    float64 // highest virtual clock any departed member reached
}

// Controller owns the fleet membership. Mutations (Join, Leave, Fail,
// Replace, Scale) serialize on an internal mutex; readers go through the
// atomic View and never block on a mutation.
type Controller struct {
	cfg  Config
	view atomic.Pointer[View]

	// retiredClock mirrors Retired.MaxClock lock-free (float64 bits): the
	// fleet clock is read on the serve path and must not take mu.
	retiredClock atomic.Uint64

	mu      sync.Mutex // serializes mutations and guards the fields below
	nextID  int
	joins   int
	leaves  int
	fails   int
	cuBytes int64
	cuSecs  float64
	retired Retired
}

// NewController seeds the fleet: members get IDs and slots 0..n-1.
func NewController(cfg Config, seed []*core.System) (*Controller, error) {
	if len(seed) == 0 {
		return nil, fmt.Errorf("fleet: need at least one seed replica")
	}
	if cfg.BandwidthBps == 0 {
		cfg.BandwidthBps = simnet.Gbps100
	}
	if cfg.LatencySec == 0 {
		cfg.LatencySec = 0.001
	}
	if cfg.BandwidthBps < 0 || cfg.LatencySec < 0 {
		return nil, fmt.Errorf("fleet: link parameters must be non-negative")
	}
	c := &Controller{cfg: cfg, nextID: len(seed)}
	slots := make([]*Member, len(seed))
	for i, sys := range seed {
		slots[i] = &Member{ID: i, Slot: i, Sys: sys}
	}
	c.install(slots, 0)
	return c, nil
}

// View returns the current membership snapshot (lock-free).
func (c *Controller) View() *View { return c.view.Load() }

// RetiredClock returns the highest virtual clock among departed members
// (lock-free; serve-path safe).
func (c *Controller) RetiredClock() float64 {
	return floatFromBits(c.retiredClock.Load())
}

// Stats returns the controller's accounting snapshot.
func (c *Controller) Stats() Stats {
	v := c.View()
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Members:        v.NumActive(),
		Joins:          c.joins,
		Leaves:         c.leaves,
		Fails:          c.fails,
		CatchUpBytes:   c.cuBytes,
		CatchUpSeconds: c.cuSecs,
	}
}

// Retired returns the folded stats of departed members.
func (c *Controller) Retired() Retired {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retired
}

// commit runs f — stats folding plus the view install — under the
// configured InstallBarrier (directly when none is set). Callers must hold
// mu.
func (c *Controller) commit(f func()) {
	if c.cfg.InstallBarrier != nil {
		c.cfg.InstallBarrier(f)
		return
	}
	f()
}

// install publishes a fresh view built from slots. Callers must hold mu
// (except the constructor, which has exclusive access).
func (c *Controller) install(slots []*Member, version int64) {
	active := make([]*Member, 0, len(slots))
	systems := make([]*core.System, 0, len(slots))
	for _, m := range slots {
		if m != nil {
			active = append(active, m)
			systems = append(systems, m.Sys)
		}
	}
	c.view.Store(&View{
		Version: version,
		slots:   slots,
		active:  active,
		systems: systems,
		ring:    newRing(active),
	})
}

// cloneSlots copies the current slot table for mutation.
func (c *Controller) cloneSlots() []*Member {
	v := c.View()
	return append([]*Member(nil), v.slots...)
}

// Join admits a fresh replica into the first empty slot (or a new one),
// catching it up from the best donor. It returns the new member and the
// catch-up bill.
func (c *Controller) Join() (*Member, CatchUp, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.joinLocked()
}

// joinLocked admits one member into the first empty slot (or a new one).
// Callers must hold mu.
func (c *Controller) joinLocked() (*Member, CatchUp, error) {
	if c.cfg.Spawn == nil {
		return nil, CatchUp{}, fmt.Errorf("fleet: no Spawn factory configured")
	}
	sys, err := c.cfg.Spawn()
	if err != nil {
		return nil, CatchUp{}, fmt.Errorf("fleet: spawn replica: %w", err)
	}
	cu := CatchUp{DonorID: -1, Epoch: -1}
	if donor := c.donorLocked(); donor != nil {
		cu, err = c.catchUp(donor, sys)
		if err != nil {
			return nil, CatchUp{}, err
		}
	}
	slots := c.cloneSlots()
	slot := -1
	for i, m := range slots {
		if m == nil {
			slot = i
			break
		}
	}
	if slot < 0 {
		slot = len(slots)
		slots = append(slots, nil)
	}
	m := &Member{ID: c.nextID, Slot: slot, Sys: sys}
	c.nextID++
	slots[slot] = m
	c.commit(func() { c.install(slots, c.View().Version+1) })
	c.joins++
	c.cuBytes += cu.bytes()
	c.cuSecs += cu.Seconds
	return m, cu, nil
}

// donorLocked picks the catch-up donor: the active member with the highest
// published adapter epoch, ties broken by the lowest (longest-lived) ID.
// Callers must hold mu.
func (c *Controller) donorLocked() *Member { return c.donorExcludingLocked(nil) }

// catchUp transfers the donor's base checkpoint and full LoRA state into
// sys, bills the virtual sync clock, and reports the transfer. Only the
// donor's per-replica lock is held, and only for the O(state) export.
func (c *Controller) catchUp(donor *Member, sys *core.System) (CatchUp, error) {
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
		return CatchUp{}, fmt.Errorf("fleet: donor %d checkpoint: %w", donor.ID, err)
	}
	ckptBytes := int64(buf.Len()) // captured before ReadCheckpoint drains the buffer
	restored, err := emt.ReadCheckpoint(&buf)
	if err != nil {
		return CatchUp{}, fmt.Errorf("fleet: restore checkpoint: %w", err)
	}
	sys.Base.CopyWeightsFrom(restored)
	sys.LoRA.Publish(full, epoch)
	cu := CatchUp{
		DonorID:         donor.ID,
		Epoch:           epoch,
		CheckpointBytes: ckptBytes,
		LoRABytes:       lora.PayloadBytes(full),
	}
	// Point-to-point transfer: one link latency per payload leg, bytes at
	// line rate — the same pricing model the sync collective uses.
	cu.Seconds = 2*c.cfg.LatencySec + float64(cu.bytes())/c.cfg.BandwidthBps
	if c.cfg.SyncClock != nil {
		c.cfg.SyncClock.Advance(cu.Seconds)
	}
	return cu, nil
}

// Leave removes the member in slot gracefully (its statistics are folded
// into the retired aggregate; the slot empties). The last active member
// cannot leave.
func (c *Controller) Leave(slot int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.removeLocked(slot); err != nil {
		return err
	}
	c.leaves++
	return nil
}

// Fail excludes the member in slot immediately — the crash path. Routing
// stops at the next view load; redirect absorbs requests already routed to
// the slot. The last active member cannot fail.
func (c *Controller) Fail(slot int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.removeLocked(slot); err != nil {
		return err
	}
	c.fails++
	return nil
}

// removeLocked empties a slot and folds the departing member's stats. The
// fold and the view swap happen inside one InstallBarrier section, so no
// in-flight request can finish on the member between the two (its count
// would be lost from both the retired aggregate and the live sums).
// Callers must hold mu.
func (c *Controller) removeLocked(slot int) error {
	v := c.View()
	m := v.Member(slot)
	if m == nil {
		return fmt.Errorf("fleet: no member in slot %d (capacity %d)", slot, v.NumSlots())
	}
	if v.NumActive() <= 1 {
		return fmt.Errorf("fleet: cannot remove the last active member (slot %d)", slot)
	}
	slots := c.cloneSlots()
	slots[slot] = nil
	c.commit(func() {
		c.fold(m)
		c.install(slots, v.Version+1)
	})
	return nil
}

// fold accumulates a departing member's stats into the retired aggregate.
// Callers must hold mu.
func (c *Controller) fold(m *Member) {
	rs := m.Sys.Stats()
	c.retired.Served += rs.Served
	c.retired.Violations += rs.Violations
	c.retired.TrainSteps += rs.TrainSteps
	c.retired.FullSyncs += rs.FullSyncs
	c.retired.LatencySum += rs.MeanLatency * float64(rs.Served)
	c.retired.HitInfSum += rs.InferenceHitRatio * float64(rs.Served)
	c.retired.HitTrainSum += rs.TrainingHitRatio * float64(rs.Served)
	if rs.VirtualTime > c.retired.MaxClock {
		c.retired.MaxClock = rs.VirtualTime
		c.retiredClock.Store(floatToBits(rs.VirtualTime))
	}
}

// Replace swaps the member in slot for a freshly caught-up replica in one
// view change: the old member (if the slot is occupied) is failed and the
// replacement joins the same slot, catching up from the best surviving
// donor. Replacing an already-empty slot just refills it.
func (c *Controller) Replace(slot int) (*Member, CatchUp, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cfg.Spawn == nil {
		return nil, CatchUp{}, fmt.Errorf("fleet: no Spawn factory configured")
	}
	v := c.View()
	old := v.Member(slot)
	if old == nil && (slot < 0 || slot >= v.NumSlots()) {
		return nil, CatchUp{}, fmt.Errorf("fleet: replace slot %d out of range (capacity %d)", slot, v.NumSlots())
	}
	sys, err := c.cfg.Spawn()
	if err != nil {
		return nil, CatchUp{}, fmt.Errorf("fleet: spawn replacement: %w", err)
	}
	// Catch up from the freshest survivor; with no survivor (single-member
	// fleet) the departing member itself donates — its state is the fleet
	// state.
	donor := c.donorExcludingLocked(old)
	if donor == nil {
		donor = old
	}
	cu := CatchUp{DonorID: -1, Epoch: -1}
	if donor != nil {
		cu, err = c.catchUp(donor, sys)
		if err != nil {
			return nil, CatchUp{}, err
		}
	}
	slots := c.cloneSlots()
	m := &Member{ID: c.nextID, Slot: slot, Sys: sys}
	c.nextID++
	slots[slot] = m
	c.commit(func() {
		if old != nil {
			c.fold(old)
		}
		c.install(slots, v.Version+1)
	})
	if old != nil {
		c.fails++
	}
	c.joins++
	c.cuBytes += cu.bytes()
	c.cuSecs += cu.Seconds
	return m, cu, nil
}

// donorExcludingLocked picks the donor among active members other than
// skip (nil skips no one). Callers must hold mu.
func (c *Controller) donorExcludingLocked(skip *Member) *Member {
	var donor *Member
	var donorEpoch int64
	for _, m := range c.View().Active() {
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

// Scale grows or shrinks the active fleet to n members: joins fill empty
// slots first (then extend capacity); shrinks gracefully retire the
// highest-slot members. It returns the net member delta.
func (c *Controller) Scale(n int) (int, error) {
	if n < 1 {
		return 0, fmt.Errorf("fleet: cannot scale to %d members", n)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	delta := 0
	for c.View().NumActive() < n {
		if _, _, err := c.joinLocked(); err != nil {
			return delta, err
		}
		delta++
	}
	for c.View().NumActive() > n {
		active := c.View().Active()
		slot := active[len(active)-1].Slot
		if err := c.removeLocked(slot); err != nil {
			return delta, err
		}
		c.leaves++
		delta--
	}
	return delta, nil
}

func floatToBits(f float64) uint64   { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
