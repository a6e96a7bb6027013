// Package liveupdate is a from-scratch Go reproduction of "Near-Zero-Overhead
// Freshness for Recommendation Systems via Inference-Side Model Updates"
// (HPCA 2026). It provides:
//
//   - the LiveUpdate serving stack behind one Server interface: a single
//     co-located node (System) or a replica fleet with request routing and
//     periodic LoRA priority-merge synchronization (Cluster) — propagated
//     through a versioned asynchronous pipeline that never blocks serving
//     (see WithSyncEvery). The fleet is elastic: replicas
//     join, leave, fail, and are replaced at runtime with checkpoint + LoRA
//     catch-up (ElasticServer);
//   - Drive, the concurrent load driver, configured by one DriveConfig: the
//     worker count, lane batching and a chaos schedule for an elastic fleet
//     are settings of a drive, never of the Server it drives;
//   - the baselines the paper compares against: NoUpdate, DeltaUpdate, and
//     QuickUpdate, behind a single comparison harness (Comparison);
//   - the evaluation suite: every table and figure of the paper's §V can be
//     regenerated with RunExperiment.
//
// The heavy machinery lives in internal/ packages (tensor math, DLRM,
// embedding tables, LoRA adapters, the replica fleet with its elastic
// membership (internal/cluster) and chaos-script grammar (internal/fleet),
// the discrete-event cluster simulation, and the NUMA hardware model); this
// package re-exports the surface a downstream user needs.
//
// Quickstart — single node:
//
//	profile, _ := liveupdate.ProfileByName("criteo")
//	srv, err := liveupdate.New(liveupdate.WithProfile(profile), liveupdate.WithSeed(42))
//	if err != nil { ... }
//	gen := liveupdate.NewWorkload(profile, 42)
//	for i := 0; i < 10000; i++ {
//	    resp, err := srv.Serve(gen.Next())
//	    _ = resp.Prob; _ = err
//	}
//	st := srv.Stats()
//	fmt.Println("P99:", st.P99, "LoRA overhead:", st.MemoryOverhead)
//
// Scaling out is one option away — four replicas sharing a base checkpoint,
// embedding-locality routing, and a LoRA sync every 30 virtual seconds:
//
//	srv, err := liveupdate.New(
//	    liveupdate.WithProfile(profile),
//	    liveupdate.WithReplicas(4),
//	    liveupdate.WithRouter(liveupdate.HashRouter),
//	    liveupdate.WithSyncEvery(30*time.Second),
//	)
//
// Stats() on a Cluster returns the merged fleet view (true cross-replica
// P99, exact violation counts, sync payload accounting) with a per-replica
// breakdown in Stats.Replicas.
package liveupdate

import (
	"context"
	"fmt"
	"net"
	"time"

	"liveupdate/internal/cluster"
	"liveupdate/internal/collective"
	"liveupdate/internal/core"
	"liveupdate/internal/dlrm"
	"liveupdate/internal/driver"
	"liveupdate/internal/experiments"
	"liveupdate/internal/faultnet"
	"liveupdate/internal/fleet"
	"liveupdate/internal/metrics"
	"liveupdate/internal/netclient"
	"liveupdate/internal/netserve"
	"liveupdate/internal/numasim"
	"liveupdate/internal/trace"
	"liveupdate/internal/update"
)

// Version identifies this reproduction release.
const Version = "2.7.0"

// Server is the unified serving abstraction: one request in, a scored
// response out, plus a consistent statistics snapshot. Both the single-node
// System and the multi-replica Cluster implement it, so serving loops,
// benchmarks, and the CLI scale from one node to a fleet unchanged.
//
// Both implementations are safe for concurrent callers: a System serializes
// requests on an internal lock, while a Cluster serves independent replicas
// in parallel and only barriers the fleet for an explicit SyncNow. Use
// Drive to pump a workload through a Server from many goroutines with
// deterministic virtual-time results.
type Server interface {
	// Serve scores one request (and, on a LiveUpdate node, interleaves the
	// co-located training tick).
	Serve(Sample) (Response, error)
	// Stats snapshots serving, training, memory, and — for a fleet — sync
	// statistics.
	Stats() Stats
}

// Both serving topologies implement Server.
var (
	_ Server = (*System)(nil)
	_ Server = (*Cluster)(nil)
)

// ElasticServer is a Server whose replica fleet can change at runtime while
// it keeps serving: replicas can be scaled, failed, and replaced, with a
// joining replica caught up from a live donor (base-table checkpoint + full
// LoRA state, billed to the virtual sync clock). A Cluster implements it; a
// single-node System does not. Richer membership surgery (Join/Leave of
// specific slots, the live member view) lives on *Cluster directly.
type ElasticServer interface {
	Server
	// Scale grows or shrinks the active fleet to n replicas.
	Scale(n int) error
	// FailReplica kills the replica in a slot: it is excluded from routing
	// immediately, in-flight requests to its lane redirect, and its
	// statistics fold into the fleet totals.
	FailReplica(slot int) error
	// ReplaceReplica fails the replica in a slot (if present) and admits a
	// freshly caught-up replacement into the same slot, returning that slot.
	ReplaceReplica(slot int) (int, error)
}

var _ ElasticServer = (*Cluster)(nil)

// ChaosEvent is one scripted membership change at a virtual timestamp.
type ChaosEvent = fleet.Event

// ChaosAction names a membership event kind.
type ChaosAction = fleet.Action

// The chaos actions: kill/replace/leave take a slot operand, scale takes
// the target fleet size, join takes none.
const (
	ChaosKill    = fleet.Kill
	ChaosReplace = fleet.Replace
	ChaosJoin    = fleet.Join
	ChaosLeave   = fleet.Leave
	ChaosScale   = fleet.Scale
)

// ChaosSchedule is an ordered set of chaos events, applied by Drive at
// deterministic drain points (see DriveConfig.Chaos).
type ChaosSchedule = fleet.Schedule

// AppliedChaosEvent records where in a drive a chaos event landed.
type AppliedChaosEvent = driver.AppliedEvent

// ParseChaosScript parses the -chaos flag grammar: events separated by ';',
// each "@<duration> <action> [arg]" — e.g. "@2s kill 1; @4s replace 1;
// @6s scale 6". Durations are virtual time.
func ParseChaosScript(src string) (ChaosSchedule, error) { return fleet.ParseScript(src) }

// Response is the result of serving one request.
type Response = core.Response

// Stats is a Server statistics snapshot. On a Cluster the top-level fields
// are merged across the fleet and Replicas carries the per-replica view;
// an idle Cluster reports NaN for P50/P99 (quantiles of an empty window are
// undefined — check math.IsNaN).
type Stats = core.Stats

// System is a single LiveUpdate inference node: serving plus co-located LoRA
// training with performance isolation. See internal/core for details.
type System = core.System

// Cluster is a fleet of replica Systems sharing one base checkpoint, with
// pluggable request routing and periodic LoRA priority-merge sync. See
// internal/cluster for details.
type Cluster = cluster.Cluster

// Router picks the replica that serves each request from the fleet's live
// membership view, so routing follows joins, leaves, and failures without a
// rebuild. WithRouter selects one of the built-in policies, the only
// implementations.
type Router = cluster.Router

// RouterPolicy names a built-in routing policy for WithRouter.
type RouterPolicy = cluster.Policy

// The built-in routing policies.
const (
	// RoundRobinRouter cycles through replicas uniformly.
	RoundRobinRouter = cluster.RoundRobin
	// LeastLoadedRouter picks the replica with the smallest virtual-time
	// backlog.
	LeastLoadedRouter = cluster.LeastLoaded
	// HashRouter shards by sparse feature ids for embedding locality.
	HashRouter = cluster.Hash
)

// RouterPolicies lists the built-in routing policies.
func RouterPolicies() []RouterPolicy { return cluster.Policies() }

// SyncTopology names the collective topology pricing fleet syncs.
type SyncTopology = collective.Kind

// The sync collective topologies. The merged state is bit-identical under
// every topology (and with delta sync on or off); only the simulated cost —
// wire bytes and virtual seconds — changes.
const (
	// SyncTopologyFlat (the default) is the original recursive-doubling
	// AllGather: log-depth, but quadratic fleet-wide wire volume.
	SyncTopologyFlat = collective.TopologyFlat
	// SyncTopologyRing pipelines chunked partial merges around a ring:
	// bandwidth-optimal (linear wire volume) at n−1 hops of latency.
	SyncTopologyRing = collective.TopologyRing
	// SyncTopologyTree is a binomial reduce + broadcast: log-depth and
	// linear wire volume — the fleet-scale choice.
	SyncTopologyTree = collective.TopologyTree
)

// SyncTopologies lists the supported sync topologies, default first.
func SyncTopologies() []SyncTopology { return collective.Topologies() }

// Quantization selects the published inference weight format of the dense
// MLPs. Training always runs in float64; quantization snapshots the weights
// at publish time (system construction, full sync), so it changes served
// probabilities only — every virtual-time statistic is invariant to it.
// dlrm's TestQuantAUCWithinEpsilon gates each quantized mode's accuracy:
// |ΔAUC| vs the float64 baseline must stay within 0.01.
type Quantization = dlrm.QuantMode

// The quantization modes.
const (
	// QuantizationNone (the default) serves float64 weights.
	QuantizationNone = dlrm.QuantNone
	// QuantizationInt8 serves int8 weights with one symmetric scale per
	// output row; dot products run in int32 with no per-element dequant.
	QuantizationInt8 = dlrm.QuantInt8
	// QuantizationF16 serves weights truncated to f16-style precision (10
	// explicit mantissa bits, float32 exponent range).
	QuantizationF16 = dlrm.QuantF16
)

// Quantizations lists the supported quantization modes, default first.
func Quantizations() []Quantization {
	return dlrm.QuantModes()
}

// ParseQuantization validates a quantization mode string ("" means none).
func ParseQuantization(s string) (Quantization, error) {
	return dlrm.ParseQuantMode(s)
}

// Profile describes a dataset/workload (paper Table II).
type Profile = trace.Profile

// Workload generates the synthetic drifting CTR stream.
type Workload = trace.Generator

// Sample is one labeled user-item interaction.
type Sample = trace.Sample

// StrategyKind selects an update strategy for comparisons.
type StrategyKind = update.Kind

// The strategies the paper evaluates (§V-A).
const (
	NoUpdate    = update.NoUpdate
	DeltaUpdate = update.DeltaUpdate
	QuickUpdate = update.QuickUpdate
	LiveUpdate  = update.LiveUpdate
)

// HardwareWorkload tags the two co-located processes on the machine model
// for per-workload statistics (cache hit ratios, DRAM traffic).
type HardwareWorkload = numasim.Workload

// The co-located workloads of the hardware model.
const (
	WorkloadInference = numasim.Inference
	WorkloadTraining  = numasim.Training
)

// Option configures New. Options compose left to right; later options win.
type Option interface {
	apply(*config) error
}

type optionFunc func(*config) error

func (f optionFunc) apply(c *config) error { return f(c) }

type config struct {
	profile   *Profile
	seed      uint64
	replicas  int
	router    RouterPolicy
	syncEvery time.Duration
	topology  SyncTopology
	deltaSync bool
	compress  int
	overrides []func(*core.Options)
	listener  net.Listener
	admission AdmissionConfig
	telemetry *metrics.Telemetry
	faultPlan FaultPlan
}

// WithProfile selects the dataset/workload profile (required).
func WithProfile(p Profile) Option {
	return optionFunc(func(c *config) error {
		c.profile = &p
		return nil
	})
}

// WithSeed sets the deterministic seed for model init, workload hashing, and
// training. The default is 42.
func WithSeed(seed uint64) Option {
	return optionFunc(func(c *config) error {
		c.seed = seed
		return nil
	})
}

// WithReplicas sets the fleet size. 1 (the default) builds a single System;
// n > 1 builds a Cluster of n replicas sharing one base checkpoint.
func WithReplicas(n int) Option {
	return optionFunc(func(c *config) error {
		if n < 1 {
			return fmt.Errorf("liveupdate: WithReplicas(%d): fleet size must be >= 1", n)
		}
		c.replicas = n
		return nil
	})
}

// WithRouter selects the request-routing policy for a fleet. The default is
// round-robin. It has no effect on a single-node Server.
func WithRouter(p RouterPolicy) Option {
	return optionFunc(func(c *config) error {
		if _, err := cluster.NewRouter(p); err != nil {
			return err
		}
		c.router = p
		return nil
	})
}

// WithSyncEvery sets the virtual-time interval between fleet-wide LoRA
// priority-merge syncs (default 30s of virtual time). Zero disables periodic
// syncs. It has no effect on a single-node Server.
//
// Periodic syncs run on a background pipeline that never blocks serving:
// each replica is snapshotted individually, merged off the serving path, and
// installed in place per replica, stamped with the sync epoch. Virtual-time
// statistics (Served, Violations, sync counts, clocks, latency quantiles,
// hit ratios, membership) are deterministic for any worker count. Which
// training lands before a snapshot depends on scheduling (the paper's
// bounded-staleness window), so adapter values are not, and neither is
// what is computed from them: the sync bill (SyncBytes, SyncSeconds and its
// compute/publish split, SyncWireBytes, SyncDeltaSavedBytes,
// SyncCompressSavedBytes, SyncCompressSeconds, and after churn CatchUpBytes
// and CatchUpSeconds) and the adapter census (LoRAHotRows, MemoryOverhead). A caller that needs these as a function of
// the request sequence sets zero and calls (*Cluster).SyncNow, an explicit
// barrier, at the marks itself.
func WithSyncEvery(d time.Duration) Option {
	return optionFunc(func(c *config) error {
		if d < 0 {
			return fmt.Errorf("liveupdate: WithSyncEvery(%v): interval must be non-negative", d)
		}
		c.syncEvery = d
		return nil
	})
}

// WithSyncTopology selects the collective topology pricing fleet syncs:
// SyncTopologyFlat (the default recursive-doubling AllGather),
// SyncTopologyRing, or SyncTopologyTree. Topology changes only the sync
// bill — wire bytes and virtual seconds — never the merged state, so every
// virtual-time statistic other than the sync cost columns is unchanged. It
// has no effect on a single-node Server.
func WithSyncTopology(t SyncTopology) Option {
	return optionFunc(func(c *config) error {
		if _, err := collective.ParseTopology(t); err != nil {
			return fmt.Errorf("liveupdate: WithSyncTopology: %w", err)
		}
		c.topology = t
		return nil
	})
}

// WithDeltaSync enables delta sync billing: each sync ships only rows whose
// generation changed since the peer's last acknowledged sync, and skips
// shared factors the receivers already hold. Pure cost accounting — the
// merged state stays bit-identical to full sync; SyncDeltaSavedBytes in
// Stats reports the avoided wire volume. It has no effect on a single-node
// Server.
func WithDeltaSync(enabled bool) Option {
	return optionFunc(func(c *config) error {
		c.deltaSync = enabled
		return nil
	})
}

// WithCompression prices flate compression of sync payloads: level 0 (the
// default) disables it, 1 (fastest) … 9 (best ratio) trade modeled cpu
// seconds (SyncCompressSeconds) for wire bytes (SyncCompressSavedBytes). It
// has no effect on a single-node Server.
func WithCompression(level int) Option {
	return optionFunc(func(c *config) error {
		if level < 0 || level > 9 {
			return fmt.Errorf("liveupdate: WithCompression(%d): level out of range [0,9]", level)
		}
		c.compress = level
		return nil
	})
}

// WithQuantization selects the published inference weight format (see
// Quantization). The zero value serves float64.
func WithQuantization(q Quantization) Option {
	return optionFunc(func(c *config) error {
		if _, err := dlrm.ParseQuantMode(string(q)); err != nil {
			return fmt.Errorf("liveupdate: WithQuantization: %w", err)
		}
		c.overrides = append(c.overrides, func(o *core.Options) { o.Quantization = string(q) })
		return nil
	})
}

// WithTraining toggles the co-located LoRA trainer (off = the paper's
// "Only Infer" baseline).
func WithTraining(enabled bool) Option {
	return optionFunc(func(c *config) error {
		c.overrides = append(c.overrides, func(o *core.Options) { o.EnableTraining = enabled })
		return nil
	})
}

// WithIsolation toggles NUMA-aware CCD scheduling and embedding-vector reuse
// together (off = the paper's naive co-location, "w/o Opt").
func WithIsolation(enabled bool) Option {
	return optionFunc(func(c *config) error {
		c.overrides = append(c.overrides, func(o *core.Options) {
			o.EnableScheduling = enabled
			o.EnableReuse = enabled
		})
		return nil
	})
}

// WithSystemOptions applies an arbitrary edit to the underlying per-node
// core options after defaults are computed — the escape hatch for knobs
// without a dedicated Option (train cadence, SLA, machine model, ...).
func WithSystemOptions(edit func(*Options)) Option {
	return optionFunc(func(c *config) error {
		c.overrides = append(c.overrides, func(o *core.Options) {
			edit((*Options)(o))
		})
		return nil
	})
}

// WithListener exposes the constructed Server over a real TCP (or any
// net.Listener) wire front end: HTTP/1.1 + JSON for one sample, a
// length-prefixed binary frame for driven traffic, with connection limits, a
// bounded admission queue, and SLA-budget-aware load shedding (429 +
// Retry-After). New then returns a *Gateway — still a Server, with its
// Serve/Stats delegating in-process — whose Addr and Close manage the
// listener; type-assert to reach them:
//
//	srv, _ := liveupdate.New(liveupdate.WithProfile(p), liveupdate.WithListener(ln))
//	gw := srv.(*liveupdate.Gateway)
//	defer gw.Close()
//
// The gateway owns the listener and closes it on Close. The wire path is
// deliberately outside the virtual-time determinism contract: request
// arrival order over concurrent connections is wall-clock real, so
// worker-count-invariant statistics hold for in-process driving only.
func WithListener(ln net.Listener) Option {
	return optionFunc(func(c *config) error {
		if ln == nil {
			return fmt.Errorf("liveupdate: WithListener requires a non-nil listener")
		}
		c.listener = ln
		return nil
	})
}

// WithAdmission sets the wire front end's admission policy (connection
// limit, inflight bound, queue depth, SLA shedding budget). Only meaningful
// together with WithListener; zero fields take the netserve defaults.
func WithAdmission(cfg AdmissionConfig) Option {
	return optionFunc(func(c *config) error {
		c.admission = cfg
		return nil
	})
}

// WithTelemetry attaches the fleet telemetry layer to the Server: a named
// metrics registry that serving, cluster sync, fleet membership, and — under
// WithListener — wire admission register into, plus (when cfg.SampleEvery > 0)
// sampled per-request stage tracing (route, admission queue wait, forward,
// commit, sync-publish stall) into a preallocated lock-free span ring.
//
// Telemetry is strictly a side-band wall-clock observer: it never reads or
// mutates virtual-time state, so every virtual-time statistic stays
// bit-identical with telemetry on or off (a test enforces this). The traced
// hot path allocates nothing; sampling costs one atomic increment per stage.
//
// Reach the surface with ServerTelemetry (scrape programmatically, dump a
// Perfetto trace) or over the wire: a WithListener gateway exports
// GET /metrics (Prometheus text), GET /debug/vars (expvar-style JSON),
// GET /trace (Chrome trace-event JSON, loadable at ui.perfetto.dev), and —
// only when cfg.Pprof is set — net/http/pprof under /debug/pprof/. All
// observability endpoints bypass admission control: they answer even while
// /serve sheds 429s. Drive reports a per-stage latency breakdown
// (DriveReport.Stages) when the driven Server carries a tracer.
func WithTelemetry(cfg TelemetryConfig) Option {
	return optionFunc(func(c *config) error {
		c.telemetry = metrics.NewTelemetry(cfg)
		return nil
	})
}

// TelemetryConfig configures WithTelemetry: SampleEvery traces 1 in N
// requests per stage into a 4096-span ring (0 disables tracing; the metrics
// registry is always on), Pprof opts the gateway into /debug/pprof/. See
// internal/metrics.TelemetryConfig for field semantics.
type TelemetryConfig = metrics.TelemetryConfig

// Telemetry is a Server's observability surface: the metrics registry, the
// stage tracer, and the export writers (WriteMetrics, WriteVars, WriteTrace).
// A nil *Telemetry is valid everywhere and means "telemetry off".
type Telemetry = metrics.Telemetry

// DriveStageStat is one pipeline stage's sampled wall-clock timing over a
// drive, carried in DriveReport.Stages when the driven Server has tracing
// enabled (WithTelemetry with SampleEvery > 0).
type DriveStageStat = driver.StageStat

// ServerTelemetry returns srv's telemetry surface, or nil when the Server
// carries none (constructed without WithTelemetry). Works on every topology:
// System, Cluster, and Gateway.
func ServerTelemetry(srv Server) *Telemetry {
	if p, ok := srv.(interface{ Telemetry() *metrics.Telemetry }); ok {
		return p.Telemetry()
	}
	return nil
}

// FaultPlan is a named, seeded network-fault-injection schedule for the wire
// path: weighted clauses of latency, reset, blackhole, truncate, and corrupt
// faults, applied deterministically per connection from the plan seed. See
// ParseFaultPlan for the grammar and WithFaultInjection to arm one.
type FaultPlan = faultnet.Plan

// FaultClass names one injected fault kind (latency, reset, blackhole,
// truncate, corrupt).
type FaultClass = faultnet.Class

// FaultClasses lists every fault class in plan-grammar order.
func FaultClasses() []FaultClass { return faultnet.Classes() }

// ParseFaultPlan parses the fault-plan grammar — clauses separated by ';',
// each "class(key=value,...)":
//
//	latency(p=0.2,min=1ms,max=20ms); reset(p=0.05); corrupt(p=0.01,bits=3)
//
// Keys: p (per-read probability), min/max (latency bounds), stall (blackhole
// hang), bytes (truncate cap), bits (corrupt bit flips). Hostile or mistyped
// values fail loudly. An empty string parses to a disabled plan. Set
// Plan.Seed before arming it; the same seed replays the same per-connection
// fault sequence.
func ParseFaultPlan(s string) (FaultPlan, error) { return faultnet.ParsePlan(s) }

// WithFaultInjection arms deterministic network chaos on the wire front end:
// every connection the WithListener gateway accepts reads its inbound bytes
// through the plan's fault clauses, seeded per connection from the plan
// seed. Faults touch only inbound requests — a request can be delayed,
// reset, stalled, truncated, or corrupted on its way in, but an accepted
// request always completes and responds — so chaos moves requests around on
// the wall clock without ever changing virtual-time statistics. Requires
// WithListener; a disabled plan (no clauses) is a no-op.
func WithFaultInjection(plan FaultPlan) Option {
	return optionFunc(func(c *config) error {
		c.faultPlan = plan
		return nil
	})
}

// AdmissionConfig is the wire front end's admission policy: MaxConns bounds
// accepted connections, MaxInflight bounds concurrently served wire
// requests, QueueDepth bounds the FIFO wait queue, and SLABudget (when
// positive) sheds arrivals whose predicted queueing delay already exceeds
// the budget. See internal/netserve.Config for field semantics and defaults.
type AdmissionConfig = netserve.Config

// Gateway is a Server exposed over a listener; see WithListener.
type Gateway = netserve.Gateway

// EndpointStats is one wire endpoint's admission ledger, carried in
// Stats.Wire when a Gateway fronts the server.
type EndpointStats = core.EndpointStats

// DialConfig configures Dial: Conns client lanes (parallel connections that
// the load driver treats as shards), the per-attempt Timeout, and the 429
// retry budget (Retries attempts, each back-off capped at MaxRetryWait).
type DialConfig = netclient.Config

// RemoteServer is a Server backed by a remote Gateway; see Dial.
type RemoteServer = netclient.Client

// Dial connects to a Gateway in another process and returns a RemoteServer:
// a Server whose requests travel over the wire. Serve posts one JSON
// sample; Drive treats the client's connections as lanes, and every driven
// request — one sample or a coalesced lane run — rides the binary fast
// path. 429 shed responses are absorbed transparently
// with Retry-After back-off; RemoteServer.Shed429 counts them. Stats()
// fetches the server-side snapshot, wire admission ledger included.
//
//	remote, err := liveupdate.Dial("localhost:7070", liveupdate.DialConfig{Conns: 8})
//	...
//	report, err := liveupdate.Drive(remote, workload, cfg)
func Dial(addr string, cfg DialConfig) (*RemoteServer, error) {
	return netclient.Dial(addr, cfg)
}

// Both wire endpoints satisfy the serving abstraction.
var (
	_ Server = (*Gateway)(nil)
	_ Server = (*RemoteServer)(nil)
)

// Options is the per-node configuration WithSystemOptions edits.
type Options core.Options

// New builds a Server. With WithReplicas(1) (the default) the result is a
// single-node *System; with more replicas it is a *Cluster.
func New(opts ...Option) (Server, error) {
	c := config{seed: 42, replicas: 1, router: RoundRobinRouter, syncEvery: 30 * time.Second}
	for _, o := range opts {
		if o == nil {
			continue
		}
		if err := o.apply(&c); err != nil {
			return nil, err
		}
	}
	if c.profile == nil {
		return nil, fmt.Errorf("liveupdate: New requires WithProfile")
	}
	base := core.DefaultOptions(*c.profile, c.seed)
	for _, edit := range c.overrides {
		edit(&base)
	}
	if c.telemetry != nil {
		base.Telemetry = c.telemetry
	}
	var srv netserve.Server
	if c.replicas == 1 {
		s, err := core.New(base)
		if err != nil {
			return nil, err
		}
		srv = s
	} else {
		router, err := cluster.NewRouter(c.router)
		if err != nil {
			return nil, err
		}
		cl, err := cluster.New(cluster.Config{
			Base:        base,
			Replicas:    c.replicas,
			Router:      router,
			SyncEvery:   c.syncEvery,
			Topology:    c.topology,
			DeltaSync:   c.deltaSync,
			Compression: c.compress,
		})
		if err != nil {
			return nil, err
		}
		srv = cl
	}
	if c.listener != nil {
		if c.admission.Telemetry == nil {
			c.admission.Telemetry = c.telemetry
		}
		ln := c.listener
		if c.faultPlan.Enabled() {
			ln = faultnet.WrapListener(ln, c.faultPlan)
		}
		return netserve.New(srv, ln, c.admission)
	}
	if c.faultPlan.Enabled() {
		return nil, fmt.Errorf("liveupdate: WithFaultInjection requires WithListener — faults live on the wire")
	}
	return srv, nil
}

// DriveConfig configures Drive, the concurrent load driver, and is the only
// place a drive is configured: Requests (required), Workers (client
// goroutines; 0 = GOMAXPROCS, effective parallelism bounded by the Server's
// shard count — a Cluster's replicas, a RemoteServer's connections, 1 for a
// System), Seed (the per-worker latency-reservoir streams),
// ProgressEvery/OnProgress, BatchSize (lane coalescing, identical
// virtual-time statistics at any size) and Chaos/ChaosEvery (a membership
// schedule for an elastic Server, applied at deterministic drain points).
// See internal/driver.Config for each field.
type DriveConfig = driver.Config

// DriveReport is Drive's result: wall-clock throughput (QPS, Elapsed),
// virtual-time stats (VirtualTime, VirtualQPS, the final Stats snapshot in
// Final), and a per-worker breakdown. Virtual-time fields are deterministic
// regardless of Workers, except the sync bill and the adapter census under
// the periodic pipeline (see WithSyncEvery); wall-clock fields are measured.
type DriveReport = driver.Report

// DriveWorkerStats is one worker's share of a drive.
type DriveWorkerStats = driver.WorkerStats

// Drive pumps cfg.Requests samples from workload through srv using
// cfg.Workers client goroutines and returns a throughput report.
//
// A single sequencer draws the trace in order and routes each request to
// its shard through the Server's own (deterministic) routing; per-shard FIFO
// delivery then guarantees that every virtual-time statistic — Served,
// Violations, per-replica clocks, sync counts — is identical no matter the
// worker count, while wall-clock throughput scales with the replica fleet.
// (Exception: the least-loaded router routes by live replica clocks, which
// depend on wall-clock interleaving; use the round-robin or hash router
// when bit-identical runs matter.)
func Drive(srv Server, workload *Workload, cfg DriveConfig) (DriveReport, error) {
	return DriveContext(context.Background(), srv, workload, cfg)
}

// DriveContext is Drive with cancellation: when ctx is cancelled mid-drive,
// the partial report is returned with Cancelled set and a nil error.
func DriveContext(ctx context.Context, srv Server, workload *Workload, cfg DriveConfig) (DriveReport, error) {
	if workload == nil {
		return DriveReport{}, fmt.Errorf("liveupdate: Drive requires a workload")
	}
	return driver.Drive(ctx, srv, workload.Next, cfg)
}

// Profiles returns the dataset registry (paper Table II).
func Profiles() map[string]Profile { return trace.Profiles() }

// ProfileByName resolves a dataset name (avazu, criteo, bd-tb, avazu-tb,
// criteo-tb).
func ProfileByName(name string) (Profile, error) { return trace.ProfileByName(name) }

// NewWorkload builds a deterministic drifting CTR stream for a profile.
func NewWorkload(p Profile, seed uint64) *Workload { return trace.MustNewGenerator(p, seed) }

// Comparison configures a strategy-comparison run (the Table III setup):
// a continuously fresh training cluster fed every second sample, an
// inference replica updated by the chosen strategy, and test-then-train AUC
// evaluation on a drifting stream of 5-minute windows.
type Comparison = update.HarnessConfig

// ComparisonResult summarizes one comparison run.
type ComparisonResult = update.Result

// NewComparison returns the paper's evaluation schedule (10-minute updates,
// hourly full sync, 600 samples a window, 5% QuickUpdate sampling) for a
// profile and strategy.
func NewComparison(p Profile, k StrategyKind, seed uint64) Comparison {
	return update.DefaultHarnessConfig(p, k, seed)
}

// RunComparison executes a comparison: pretrainWindows of warmup, then
// windows of test-then-train evaluation.
func RunComparison(cfg Comparison, pretrainWindows, windows int) (ComparisonResult, error) {
	h, err := update.NewHarness(cfg)
	if err != nil {
		return ComparisonResult{}, err
	}
	h.Pretrain(pretrainWindows)
	return h.Run(windows), nil
}

// CostModel exposes the paper-scale update-cost arithmetic (Figs 8/14).
type CostModel = update.CostModel

// NewCostModel returns the paper's cost constants for a profile (100 GbE,
// 5% QuickUpdate sampling).
func NewCostModel(p Profile) CostModel { return update.DefaultCostModel(p) }

// ExperimentIDs lists the paper's 18 reproducible tables and figures in
// presentation order (table2, fig3a, …, fig19).
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one paper table/figure and returns its printable
// report. Set quick for reduced sample counts (tests, smoke runs).
func RunExperiment(id string, seed uint64, quick bool) (string, error) {
	runner, ok := experiments.Lookup(id)
	if !ok {
		return "", fmt.Errorf("liveupdate: unknown experiment %q (valid: %v)", id, experiments.IDs())
	}
	rep, err := runner(experiments.Options{Seed: seed, Quick: quick})
	if err != nil {
		return "", err
	}
	return rep.String(), nil
}
