// Package cluster runs a fleet of LiveUpdate replicas behind one serving
// front door (paper §II-C and §IV-E): N core.Systems share a common base
// checkpoint, a Router spreads requests across them, and a periodic
// priority-merge synchronization (Algorithm 3 over an internal/collective
// AllGather, priced on the Config.Topology fabric) reconciles the
// per-replica LoRA adapters so every replica converges to identical
// effective embeddings — the paper's replica-consistency requirement.
//
// The Cluster owns its replica set, and the fleet is elastic (see
// membership.go). Replicas can join, leave, fail, and be replaced at runtime
// while serving continues; a joining replica catches up
// through an emt checkpoint restore plus a full LoRA state transfer billed
// to the virtual sync clock, and routing follows the live member view
// through one atomic pointer (the hash policy is a consistent-hash ring, so
// a single membership change only remaps ~1/N of the keyspace).
//
// # Concurrency model
//
// A Cluster is safe for concurrent callers and is designed so independent
// replicas serve genuinely in parallel:
//
//   - Every serve runs ServeShardBatch, which takes a fleet-wide read lock
//     (RWMutex.RLock) plus the target replica's own mutex (inside
//     core.System.ServeBatch). Requests for
//     different replicas never contend; requests for the same replica
//     serialize, matching the single-server virtual-clock model.
//   - A periodic sync has no fleet-wide serialization point: a background
//     pipeline snapshots each replica individually (holding only that
//     replica's lock for the O(rows) export), runs the priority merge with
//     the simulated AllGather cost charged to the sync clock, and installs
//     the merged state in place in each replica, under that replica's node
//     and parameter locks (core.System.PublishLoRA). ServeShard never waits
//     for a periodic merge, only for its replica's O(rows) install.
//     Manual SyncNow and ReplicasConsistent are explicit barriers: they take
//     the fleet-wide write lock, so nothing serves while they run.
//   - Membership reads are lock-free: the serve path loads the current
//     View through an atomic pointer (under the fleet read lock, so a
//     request never straddles a membership commit). Membership mutations
//     hold syncMu — the mutex every merge (pipeline epoch, SyncNow,
//     consistency probe) holds for its whole snapshot→merge→publish span —
//     so a joiner's catch-up can never interleave with a publish. Each
//     commits in one brief (O(members)) fleet write section: the departing
//     member's stats fold, the membership counters and the view swap land
//     together, so request counts fold exactly and Stats reads all of it
//     under one read lock. The expensive parts — spawning and catching up a
//     replica — run before that section; serving is never stopped
//     fleet-wide for a membership change. Requests already routed to a slot
//     whose member has since failed redirect to the next active slot.
//     Lock order: syncMu → fleetMu → per-replica node locks.
//   - Periodic syncs trigger on virtual-time epochs: epoch k starts when the
//     fleet clock crosses k·SyncEvery, and each epoch is synced exactly
//     once. Because a replica's virtual timeline depends only on its own
//     request subsequence (LoRA values never feed back into latency), every
//     virtual-time statistic — Served, Violations, sync counts, per-replica
//     clocks and latency quantiles — is identical no matter how many
//     goroutines drive the fleet, as long as per-replica request order is
//     preserved and membership changes land at deterministic points in the
//     request sequence (see internal/driver, which guarantees both). What
//     the pipeline gives up is bit-identical adapter VALUES across runs:
//     which training steps land before a given snapshot depends on
//     wall-clock interleaving, the bounded-staleness window the paper's
//     live-update design explicitly embraces. A caller that needs adapter
//     content as a function of the request sequence sets SyncEvery to zero
//     and calls SyncNow at the marks itself.
package cluster

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"liveupdate/internal/collective"
	"liveupdate/internal/core"
	"liveupdate/internal/metrics"
	"liveupdate/internal/simnet"
	"liveupdate/internal/trace"
)

// The sync fabric's links, also billed by catch-up transfers: 100 GbE at
// 1 ms a hop.
const (
	linkBandwidthBps = simnet.Gbps100
	linkLatencySec   = 0.001
)

// Config describes a replica fleet.
type Config struct {
	// Base configures each replica. All replicas are built from the same
	// options (same seed → same base checkpoint); local rank adaptation is
	// force-disabled because Algorithm 3 exchanges factor rows, which
	// requires a fleet-wide common rank (rank changes ride the full sync).
	// Replicas admitted later (Join/Replace/Scale) are built the same way
	// and then caught up from a live donor.
	Base core.Options

	// Replicas is the initial fleet size (≥ 1).
	Replicas int

	// Router picks the serving replica per request. Defaults to round-robin.
	Router Router

	// SyncEvery is the virtual-time interval between LoRA priority-merge
	// syncs: one sync fires for each SyncEvery epoch the fleet-max clock
	// crosses. Zero disables periodic syncs (SyncNow remains available).
	SyncEvery time.Duration

	// Topology selects the collective pricing the sync fabric: "flat" (the
	// default recursive-doubling AllGather), "ring", or "tree". The merged
	// state is identical under every topology; only the sync bill changes.
	Topology collective.Kind

	// DeltaSync bills only rows and factors changed since each peer's last
	// acknowledged sync generation. Pure cost accounting — state flow is
	// unchanged, so results stay bit-identical to full sync.
	DeltaSync bool

	// Compression prices flate compression of sync payloads: 0 disables,
	// 1 (fastest) … 9 (best ratio). Trades CompressSeconds for WireBytes.
	Compression int
}

// validate reports configuration errors.
func (c Config) validate() error {
	if c.Replicas < 1 {
		return fmt.Errorf("cluster: Replicas must be >= 1, got %d", c.Replicas)
	}
	if c.SyncEvery < 0 {
		return fmt.Errorf("cluster: SyncEvery must be non-negative")
	}
	if _, err := collective.ParseTopology(c.Topology); err != nil {
		return err
	}
	if c.Compression < 0 || c.Compression > 9 {
		return fmt.Errorf("cluster: Compression level %d out of range [0,9]", c.Compression)
	}
	return c.Base.Validate()
}

// Cluster is a fleet of replica Systems behind a Router. It implements the
// same Serve/Stats surface as a single core.System, so callers can scale
// from one node to a fleet without changing the serving loop, and it is safe
// for concurrent callers (see the package comment for the locking model).
// Membership is elastic: see FailReplica, ReplaceReplica, Scale, and
// ApplyChaos (which also joins and leaves).
type Cluster struct {
	cfg    Config
	router Router
	sync   *collective.SyncGroup

	// syncClock accumulates virtual time spent inside priority-merge syncs
	// and catch-up transfers, separate from the replicas' serving clocks.
	syncClock *simnet.Clock

	// fleetMu is the serve/sync barrier: Serve holds it for read; SyncNow
	// and consistency probes hold it for write, as does every membership
	// commit (fold + counters + view swap — O(members), so the serve stall is
	// microseconds). The periodic pipeline never takes it.
	fleetMu sync.RWMutex
	// syncMu serializes every merge (each pipeline epoch, SyncNow,
	// consistency probes) with every membership mutation. Holding it across
	// a mutation makes the catch-up's donor export and the joiner's install
	// atomic with respect to publishes: no merged epoch can land between
	// them, so a joiner can never miss a publish whose rows would not recur
	// in later supports.
	// Serving NEVER takes syncMu — a membership change or in-flight merge
	// only ever stalls other merges, not requests. Lock order:
	// syncMu → fleetMu → per-replica node locks.
	syncMu sync.Mutex
	// syncedEpoch is the last SyncEvery epoch a periodic sync has covered.
	// Atomic: the pipeline goroutine writes it, serve-path trigger checks
	// read it lock-free.
	syncedEpoch atomic.Int64
	// pipe drives periodic syncs (nil when they are disabled).
	pipe *syncPipeline

	// view is the live membership, loaded lock-free. nextID (the next member
	// identity) is guarded by syncMu. Everything Stats reports about
	// membership — retired, the three counters, the catch-up bill — is
	// written in the same fleetMu write section as the view swap. The
	// counters are atomics so telemetry scrapes read them without a lock;
	// retiredClock (float64 bits: the highest clock a departed member
	// reached) is one so VirtualNow stays lock-free on the serve path.
	view                 atomic.Pointer[View]
	nextID               int
	retired              retired
	retiredClock         atomic.Uint64
	joins, leaves, fails atomic.Int64
	catchUpBytes         int64
	catchUpSeconds       float64

	// testSyncStall, when set by tests, is invoked by every sync between the
	// snapshot and the merge — a hook to hold a sync "in flight" and prove
	// serving does not block behind it.
	testSyncStall func()

	// Telemetry instruments (nil without Config.Base.Telemetry). Strictly
	// side-band: counters observe completed events, gauges read lock-free
	// state at scrape time, spans time wall-clock stages. Nothing here feeds
	// back into routing, syncing, or any virtual-time statistic — and scrape
	// paths never call Stats(), which would drain the sync pipeline.
	tracer   *metrics.Tracer
	telSyncs *metrics.Counter
}

// New builds the fleet: Replicas identical Systems from cfg.Base (shared
// base checkpoint) in slots 0..Replicas-1, wired into one SyncGroup.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Router == nil {
		cfg.Router = &roundRobinRouter{}
	}
	c := &Cluster{
		cfg:       cfg,
		router:    cfg.Router,
		syncClock: simnet.NewClock(),
		nextID:    cfg.Replicas,
	}
	slots := make([]*member, cfg.Replicas)
	for i := range slots {
		sys, err := c.spawn()
		if err != nil {
			return nil, fmt.Errorf("cluster: replica %d: %w", i, err)
		}
		slots[i] = &member{ID: i, Slot: i, Sys: sys}
	}
	c.install(slots)
	// The SyncGroup carries link pricing and cumulative accounting; the
	// replica set it syncs over is the live member view, passed per sync.
	var err error
	c.sync, err = collective.NewSyncGroupWith(collective.GroupConfig{
		BandwidthBps:  linkBandwidthBps,
		LatencySec:    linkLatencySec,
		Topology:      cfg.Topology,
		Delta:         cfg.DeltaSync,
		CompressLevel: cfg.Compression,
	})
	if err != nil {
		return nil, err // unreachable: Validate already checked the topology and level
	}
	if cfg.SyncEvery > 0 {
		c.pipe = newSyncPipeline(c)
	}
	if tel := cfg.Base.Telemetry; tel != nil {
		reg := tel.Registry()
		c.tracer = tel.Tracer()
		c.telSyncs = reg.Counter("liveupdate_sync_epochs_total",
			"LoRA priority-merge synchronizations completed (periodic epochs and manual syncs).")
		// Function-backed instruments read lock-free (view pointer, clock
		// and counter atomics) — never a fleet or replica serve lock, so a
		// scrape cannot stall serving.
		reg.GaugeFunc("liveupdate_fleet_members",
			"Active replicas in the current membership view.",
			func() float64 { return float64(len(c.view.Load().active)) })
		reg.GaugeFunc("liveupdate_virtual_time_seconds",
			"Fleet virtual clock (most advanced replica, including retired high-water mark).",
			c.VirtualNow)
		reg.CounterFunc("liveupdate_fleet_joins_total",
			"Replicas admitted after the seed fleet (join, replace, scale-up).",
			func() uint64 { return uint64(c.joins.Load()) })
		reg.CounterFunc("liveupdate_fleet_leaves_total",
			"Graceful departures (leave, scale-down).",
			func() uint64 { return uint64(c.leaves.Load()) })
		reg.CounterFunc("liveupdate_fleet_fails_total",
			"Abrupt exclusions (fail, the fail half of replace).",
			func() uint64 { return uint64(c.fails.Load()) })
	}
	return c, nil
}

// Telemetry returns the telemetry the fleet was built with (nil when
// observability is off); replicas share it via Config.Base.Telemetry.
func (c *Cluster) Telemetry() *metrics.Telemetry { return c.cfg.Base.Telemetry }

// Replica exposes the System serving slot i (read-mostly: experiments and
// tests). It returns nil when i is out of range or the slot is empty — its
// member failed or left — so callers must check before dereferencing.
func (c *Cluster) Replica(i int) *core.System {
	if m := c.view.Load().at(i); m != nil {
		return m.Sys
	}
	return nil
}

// Members returns the current membership view.
func (c *Cluster) Members() *View { return c.view.Load() }

// RouterName returns the active routing policy's name.
func (c *Cluster) RouterName() string { return c.router.Name() }

// NumShards returns the shard-lane capacity: the highest slot index plus
// one. Slots are stable for a member's lifetime and capacity only grows, so
// a load driver's lane ownership survives membership churn; an empty slot
// (failed/left member) simply receives no routed traffic.
func (c *Cluster) NumShards() int { return len(c.view.Load().slots) }

// ShardOf routes one request to a replica slot without serving it. Routing
// and serving are deliberately split so a concurrent driver can route the
// trace in a single deterministic sequence and then serve shards in
// parallel. Each request must be routed exactly once: stateful routers
// (round-robin) advance their cursor here. Only active slots are returned.
func (c *Cluster) ShardOf(s trace.Sample) int {
	t0 := c.tracer.StageStart(metrics.StageRoute)
	defer c.tracer.StageEnd(metrics.StageRoute, t0)
	if m := c.router.route(s, c.view.Load()); m != nil {
		return m.Slot
	}
	return -1 // surfaces as a routing error in ServeShardBatch
}

// Serve routes one request to a replica and serves it there (including that
// replica's co-located training tick). Safe for concurrent callers; note
// that concurrent callers race for per-replica arrival order, so run-to-run
// determinism under concurrency additionally needs ordered per-shard
// delivery (internal/driver provides it).
func (c *Cluster) Serve(s trace.Sample) (core.Response, error) {
	return c.ServeShard(c.ShardOf(s), s)
}

// ServeShard serves one request on a specific replica slot: a run of one
// through ServeShardBatch.
func (c *Cluster) ServeShard(shard int, s trace.Sample) (core.Response, error) {
	samples := [1]trace.Sample{s}
	var resps [1]core.Response
	err := c.ServeShardBatch(shard, samples[:], resps[:])
	return resps[0], err
}

// ServeShardBatch serves a run of pre-routed same-shard samples on one
// replica slot through core.System.ServeBatch, then hands any periodic LoRA
// sync whose virtual-time epoch the fleet clock has crossed to the
// background pipeline (without ever taking a fleet-wide write lock). It is
// the one serve body of the fleet — the load driver's lane workers coalesce
// into it, and Serve and ServeShard are runs of one. Semantics match one
// request at a time for every virtual-time statistic: each sample still gets
// its own bookkeeping tail and training trigger on the replica; only buffer
// acquisition, the fleet read lock, and the periodic-sync epoch check (which
// runs once, after the run) are amortized. A sync epoch crossed mid-run is
// therefore picked up at the run boundary — the same epochs fire either way,
// so final sync counts are unchanged. A run aimed at a slot whose member has
// since failed or left redirects to the next active slot — the lane drains
// instead of erroring. resps must have the same length as samples and is
// filled in order.
func (c *Cluster) ServeShardBatch(shard int, samples []trace.Sample, resps []core.Response) error {
	if len(resps) != len(samples) {
		return fmt.Errorf("cluster: ServeShardBatch got %d response slots for %d samples", len(resps), len(samples))
	}
	if len(samples) == 0 {
		return nil
	}
	if c.pipe != nil {
		if err := c.pipe.failure(); err != nil {
			return err
		}
	}
	// The view is resolved under the read lock: membership commits hold
	// the write lock, so a member can never be folded out of the fleet
	// totals while this run is mid-serve on it.
	c.fleetMu.RLock()
	v := c.view.Load()
	if shard < 0 || shard >= len(v.slots) {
		c.fleetMu.RUnlock()
		return fmt.Errorf("cluster: router %s picked replica %d of %d",
			c.router.Name(), shard, len(v.slots))
	}
	m := v.slots[shard]
	if m == nil {
		if m = v.redirect(shard); m == nil {
			c.fleetMu.RUnlock()
			return fmt.Errorf("cluster: no active replicas")
		}
	}
	if err := m.Sys.ServeBatch(samples, resps); err != nil {
		c.fleetMu.RUnlock()
		return err
	}
	for i := range resps {
		resps[i].Replica = m.Slot
	}
	// Kick while still holding the read lock (kick is non-blocking and
	// touches neither fleetMu nor the replicas), so anyone holding the WRITE
	// lock knows no new pipeline work can appear under them.
	c.kickCrossedEpoch()
	c.fleetMu.RUnlock()
	return nil
}

// ServeBatch routes each sample through the cluster's own router and serves
// maximal consecutive same-replica runs via ServeShardBatch — the amortized
// path for callers that hold a pre-formed mixed batch (the wire front end's
// binary endpoint) rather than pre-routed lanes. Routing happens in sample
// order through ShardOf, so stateless (hash) and cursor-stateful
// (round-robin) routers assign exactly the replicas a loop over Serve would,
// and aggregate virtual-time statistics match sequential serving either way.
// Two deliberate batch-semantics deviations: a load-aware router
// (least-loaded) sees the backlog as of batch arrival rather than after
// every serve — the requests DID arrive together — and a sync epoch crossed
// mid-run is picked up at the run boundary (same epochs fire, so sync counts
// are unchanged; scores immediately after an epoch may differ in the last
// decimals). resps must have the same length as samples and is filled in
// order.
func (c *Cluster) ServeBatch(samples []trace.Sample, resps []core.Response) error {
	if len(resps) != len(samples) {
		return fmt.Errorf("cluster: ServeBatch got %d response slots for %d samples", len(resps), len(samples))
	}
	// Route every sample exactly once, up front: stateful routers
	// (round-robin) advance their cursor per ShardOf call, so probing a
	// sample's shard twice would skew routing relative to sequential Serve.
	shards := make([]int, len(samples))
	for i := range samples {
		shards[i] = c.ShardOf(samples[i])
	}
	for start := 0; start < len(samples); {
		end := start + 1
		for end < len(samples) && shards[end] == shards[start] {
			end++
		}
		if err := c.ServeShardBatch(shards[start], samples[start:end], resps[start:end]); err != nil {
			return err
		}
		start = end
	}
	return nil
}

// Profile returns the dataset profile the fleet serves (every replica shares
// it). The wire front end advertises it to remote load generators so they
// synthesize samples with the matching feature shape.
func (c *Cluster) Profile() trace.Profile { return c.cfg.Base.Profile }

// kickCrossedEpoch hands the pipeline every SyncEvery epoch the fleet clock
// has crossed since the last periodic sync. A no-op when periodic syncs are
// disabled.
func (c *Cluster) kickCrossedEpoch() {
	if c.pipe == nil {
		return
	}
	if e := int64(math.Floor(c.VirtualNow() / c.cfg.SyncEvery.Seconds())); e > c.syncedEpoch.Load() {
		c.pipe.kick(e)
	}
}

// VirtualNow returns the fleet's current virtual time: the most advanced
// replica clock — the fleet's wall time under concurrent serving —
// including the high-water mark of members that have since departed, so
// virtual time never runs backward across a failure. Clock and view reads
// are atomic, so this is lock-free and safe from any goroutine; the load
// driver reads it at drained checkpoints to evaluate chaos-schedule
// timestamps deterministically.
func (c *Cluster) VirtualNow() float64 {
	max := math.Float64frombits(c.retiredClock.Load())
	for _, sys := range c.view.Load().systems {
		if t := sys.Clock.Now(); t > max {
			max = t
		}
	}
	return max
}

// --- Synchronization ----------------------------------------------------

// syncPipeline drives periodic syncs: serve-path triggers kick it with the
// epoch target they observed, and a single background worker processes one
// epoch at a time — snapshot, merge, per-replica publish — until it has
// caught up. The worker exits when idle, so an idle Cluster holds no
// goroutines.
type syncPipeline struct {
	c *Cluster

	mu      sync.Mutex
	cond    *sync.Cond
	target  int64 // highest epoch any trigger has requested
	running bool  // a worker goroutine is active
	err     error // first pipeline failure, surfaced on later calls

	failed atomic.Bool // lock-free fast path for the error check
}

func newSyncPipeline(c *Cluster) *syncPipeline {
	p := &syncPipeline{c: c, target: -1}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// failure returns the first pipeline failure, if any (lock-free when healthy).
func (p *syncPipeline) failure() error {
	if p == nil || !p.failed.Load() {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// kick requests syncs up to epoch target and returns immediately, starting
// the background worker if none is active.
func (p *syncPipeline) kick(target int64) {
	p.mu.Lock()
	if target > p.target {
		p.target = target
	}
	if p.running || p.err != nil {
		p.mu.Unlock()
		return
	}
	p.running = true
	p.mu.Unlock()
	go p.run()
}

// run processes pending epochs until caught up, then exits.
func (p *syncPipeline) run() {
	for {
		p.mu.Lock()
		if p.err != nil || p.c.syncedEpoch.Load() >= p.target {
			p.running = false
			p.cond.Broadcast()
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
		// The whole epoch holds syncMu: membership mutations are excluded
		// for its span, so the member set snapshotted stays the member set
		// published to, and a joiner never misses a publish.
		p.c.syncMu.Lock()
		_, err := p.c.syncOnce()
		if err == nil {
			p.c.syncedEpoch.Add(1)
		}
		p.c.syncMu.Unlock()
		if err != nil {
			p.mu.Lock()
			if p.err == nil {
				p.err = fmt.Errorf("cluster: periodic sync: %w", err)
				p.failed.Store(true)
			}
			p.mu.Unlock()
		}
	}
}

// drain blocks until the pipeline has no in-flight work (every epoch kicked
// so far is published) and returns its sticky error, if any. It never blocks
// serving — only the caller waits. Callers must hold NO cluster locks: the
// worker takes syncMu per epoch, and a membership mutation holding syncMu
// may need the fleet write lock to commit.
func (p *syncPipeline) drain() error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.running {
		p.cond.Wait()
	}
	return p.err
}

// syncOnce runs one priority-merge sync over the live members:
//
//  1. snapshot — each member is locked individually, just long enough to
//     export (and clear) its modified-row support;
//  2. merge — SyncRanked runs Algorithm 3 (member IDs are the priority
//     ranks) and charges the simulated collective to the sync clock, not to
//     any serving clock;
//  3. publish — the merged state is installed in place per member, each
//     under its node and parameter locks, and stamped with the epoch.
//
// Callers hold syncMu, so no membership change or other merge interleaves.
// Pipeline epochs take nothing else and serving proceeds throughout; SyncNow
// also holds the fleet write lock.
func (c *Cluster) syncOnce() (collective.MergeStats, error) {
	members := c.view.Load().active
	states := make([]collective.RankedState, len(members))
	for i, m := range members {
		states[i] = collective.RankedState{Rank: m.ID, Tables: m.Sys.SnapshotLoRA()}
	}
	if hook := c.testSyncStall; hook != nil {
		hook()
	}
	merged, stats, epoch, err := c.sync.SyncRanked(c.syncClock, states)
	if err != nil {
		return stats, fmt.Errorf("cluster: sync failed: %w", err)
	}
	// The publish stall is the install span: each member briefly holds its
	// node and parameter locks while the merged state is written in.
	t0 := c.tracer.StageStart(metrics.StageSyncPublish)
	for _, m := range members {
		m.Sys.PublishLoRA(merged, epoch)
	}
	c.tracer.StageEnd(metrics.StageSyncPublish, t0)
	c.telSyncs.Inc()
	return stats, nil
}

// SyncNow runs one LoRA priority-merge synchronization across the live
// members (Algorithm 3 over the configured AllGather topology, flat
// recursive doubling by default) and returns its merge statistics.
// It is an explicit barrier: it holds syncMu — waiting out any in-flight
// pipeline epoch or membership change — and the fleet-wide write lock, so
// its merge interleaves with nothing. After it returns every live member
// holds identical adapter state (an epoch kicked but not yet started runs
// afterwards and publishes uniformly, so the invariant is preserved).
// Manual syncs do not consume periodic epochs.
func (c *Cluster) SyncNow() (collective.MergeStats, error) {
	if err := c.pipe.failure(); err != nil {
		return collective.MergeStats{}, err
	}
	c.syncMu.Lock()
	defer c.syncMu.Unlock()
	c.fleetMu.Lock()
	defer c.fleetMu.Unlock()
	return c.syncOnce()
}

// lockMembers freezes every given member's node mutex (slot order, no
// cycles: nothing holds one replica's mutex while waiting on another's), so
// fleet-wide reads honor core.System's concurrency contract even for
// callers driving a replica directly via Replica(i). Callers must hold
// fleetMu for write.
func lockMembers(members []*member) {
	for _, m := range members {
		m.Sys.Lock()
	}
}

func unlockMembers(members []*member) {
	for i := len(members) - 1; i >= 0; i-- {
		members[i].Sys.Unlock()
	}
}

// ReplicasConsistent verifies the §II-C invariant: for the first idsPerTable
// ids of every table, all live members produce identical effective embedding
// rows (base + LoRA delta). It is meaningful right after a sync. It holds
// syncMu (no merge or membership change can be mid-flight) and the fleet
// write lock (no serve can train mid-probe), reading a frozen snapshot.
func (c *Cluster) ReplicasConsistent(idsPerTable int) bool {
	if c.pipe.failure() != nil {
		return false
	}
	c.syncMu.Lock()
	defer c.syncMu.Unlock()
	c.fleetMu.Lock()
	defer c.fleetMu.Unlock()
	members := c.view.Load().active
	if len(members) < 2 {
		return true
	}
	lockMembers(members)
	defer unlockMembers(members)
	p := c.cfg.Base.Profile
	ref := make([]float64, p.EmbeddingDim)
	probe := make([]float64, p.EmbeddingDim)
	for table := 0; table < p.NumTables; table++ {
		n := int32(idsPerTable)
		if int(n) > p.TableSize {
			n = int32(p.TableSize)
		}
		for id := int32(0); id < n; id++ {
			members[0].Sys.LoRA.EffectiveRow(table, id, ref)
			for r := 1; r < len(members); r++ {
				members[r].Sys.LoRA.EffectiveRow(table, id, probe)
				for d := range ref {
					if probe[d] != ref[d] {
						return false
					}
				}
			}
		}
	}
	return true
}

// Stats returns the merged fleet snapshot: exact sums for counters
// (including the folded contribution of members that have since departed),
// a true fleet-wide P99/P50 computed over the union of the live members'
// latency windows (not an average of per-replica quantiles), and the
// per-replica breakdown in Replicas (live members, in slot order).
//
// Stats first drains the periodic-sync pipeline, so the snapshot reflects
// every sync epoch the fleet had crossed when the call was made — which is
// what makes the final sync counts of a run deterministic for any worker
// count. Draining waits only for the background merge, never for serving.
// A failed periodic sync cannot be reported here (Stats carries no error);
// it surfaces on every subsequent Serve and SyncNow.
//
// When no latency samples have been retained anywhere in the fleet (nothing
// served yet), P50 and P99 are NaN — the documented "no data" sentinel;
// check with math.IsNaN rather than comparing against zero, which is a
// legitimate latency floor. Departed members' latency windows are not
// retained, so after churn the quantiles cover live members only (counters
// still cover everyone).
//
// Every call merges afresh under the fleet read lock, which costs
// O(replicas × latency window): each member's Stats under its node lock, a
// copy of its latency window, and one quantile pass over the pooled windows.
// Nothing is cached, so a write made directly through Replica(i) shows up in
// the next call just as a routed serve does.
func (c *Cluster) Stats() core.Stats {
	// Drain before merging so a draining sync's publish lands inside this
	// snapshot, not after it.
	_ = c.pipe.drain()
	return c.mergedStats()
}

// mergedStats recomputes the fleet snapshot from the live members plus the
// retired aggregate of departed ones. It holds fleetMu for read: every
// membership commit holds it for write, so the view, the retired aggregate
// and the membership counters are read as one consistent snapshot.
func (c *Cluster) mergedStats() core.Stats {
	c.fleetMu.RLock()
	defer c.fleetMu.RUnlock()
	v := c.view.Load()
	merged := core.Stats{
		VirtualTime: c.VirtualNow(),
	}
	gs := c.sync.GroupStats()
	merged.Syncs = gs.Syncs
	merged.SyncBytes = gs.PayloadBytes
	merged.SyncSeconds = gs.Seconds()
	merged.SyncComputeSeconds = gs.ComputeSeconds
	merged.SyncPublishSeconds = gs.PublishSeconds
	merged.SyncWireBytes = gs.WireBytes
	merged.SyncDeltaSavedBytes = gs.DeltaSavedBytes
	merged.SyncCompressSavedBytes = gs.CompressSavedBytes
	merged.SyncCompressSeconds = gs.CompressSeconds
	merged.SyncTopology = string(c.sync.Kind())
	merged.SLA = c.cfg.Base.Node.SLA

	merged.Members = len(v.active)
	merged.Joins = int(c.joins.Load())
	merged.Leaves = int(c.leaves.Load())
	merged.Fails = int(c.fails.Load())
	merged.CatchUpBytes = c.catchUpBytes
	merged.CatchUpSeconds = c.catchUpSeconds

	// The live members add onto a copy of the departed members' tally, in
	// slot order, so one set of formulas covers both.
	tally := c.retired
	members := v.active
	var lat []float64
	for _, m := range members {
		rs := m.Sys.Stats()
		tally.add(rs)
		merged.LoRAHotRows += rs.LoRAHotRows
		lat = append(lat, m.Sys.LatencyWindow()...)
		merged.Replicas = append(merged.Replicas, rs)
	}
	merged.Served = tally.served
	merged.Violations = tally.violations
	merged.TrainSteps = tally.trainSteps
	merged.FullSyncs = tally.fullSyncs
	if len(lat) == 0 {
		// Documented sentinel: no retained samples means the quantiles are
		// undefined, not zero.
		merged.P50 = math.NaN()
		merged.P99 = math.NaN()
	} else {
		merged.P50 = metrics.Quantile(lat, 0.50)
		merged.P99 = metrics.Quantile(lat, 0.99)
	}
	if merged.Served > 0 {
		merged.ViolationRate = float64(merged.Violations) / float64(merged.Served)
		merged.MeanLatency = tally.latencySum / float64(merged.Served)
		merged.InferenceHitRatio = tally.hitInfSum / float64(merged.Served)
		merged.TrainingHitRatio = tally.hitTrainSum / float64(merged.Served)
	}
	// Adapter footprint and rank are identical across replicas by
	// construction; report one live member's view, not the sum.
	merged.MemoryOverhead = members[0].Sys.MemoryOverhead()
	merged.LoRARank = members[0].Sys.LoRARank()
	return merged
}
