// Package core assembles the full LiveUpdate system of paper Fig 7: a
// serving node with a co-located LoRA trainer on the same (simulated)
// machine, the shadow-embedding-table reuse path, the adaptive CCD
// partitioning controller (Algorithm 2), and the tiered update schedule
// (local LoRA short-term, full sync mid-term).
package core

import (
	"fmt"
	"sync"

	"liveupdate/internal/dlrm"
	"liveupdate/internal/emt"
	"liveupdate/internal/lora"
	"liveupdate/internal/numasim"
	"liveupdate/internal/obs"
	"liveupdate/internal/serving"
	"liveupdate/internal/simnet"
	"liveupdate/internal/tensor"
	"liveupdate/internal/trace"
)

// Options configures a LiveUpdate system. The three Enable toggles map to
// the Fig 16 ablation: training off = "Only Infer"; training on with both
// optimizations off = "w/o Opt"; scheduling only = "w/ Scheduling"; both =
// "w/ Reuse+Scheduling" (the full system).
type Options struct {
	Profile trace.Profile
	Seed    uint64

	Node       serving.NodeConfig
	Machine    numasim.Config
	Controller numasim.ControllerConfig
	LoRA       lora.Config

	EnableTraining   bool // co-locate the LoRA trainer
	EnableScheduling bool // NUMA-aware CCD partitioning + Algorithm 2
	EnableReuse      bool // shadow embedding table (prefetched reuse path)

	TrainBatch    int     // samples per co-located training tick
	TrainInterval int     // serve this many requests between training ticks
	EmbLR         float64 // LoRA learning rate
	InitialInfCCD int     // starting inference partition (scheduling on)

	// BatchSize is the preferred serving batch size — the number of queued
	// same-shard requests a load driver should coalesce into one ServeBatch /
	// ServeShardBatch call. 0 or 1 means unbatched. It is a driving hint
	// (picked up via DefaultBatchSize), not a serving-path requirement.
	BatchSize int

	// Telemetry, when non-nil, receives side-band wall-clock observability:
	// serve/violation/train-tick counters, a virtual-latency histogram, and
	// sampled stage spans (see internal/obs). It is strictly an observer —
	// it never reads or mutates virtual-time state, so every deterministic
	// statistic is bit-identical with telemetry on or off. Replicas of one
	// fleet share a Telemetry; same-name instruments are get-or-create.
	Telemetry *obs.Telemetry

	// Quantization selects the published inference weight format for the
	// dense MLPs: "" or "none" (float64), "int8" (per-row symmetric scales,
	// int32 dot products), or "f16" (f16-style truncated weights). Training
	// always runs in float64; quantization changes served probabilities
	// only, never virtual-time statistics (see dlrm.QuantMode).
	Quantization string
}

// DefaultOptions returns the full system configuration for a profile.
func DefaultOptions(p trace.Profile, seed uint64) Options {
	mcfg := numasim.DefaultConfig()
	return Options{
		Profile:          p,
		Seed:             seed,
		Node:             serving.DefaultNodeConfig(),
		Machine:          mcfg,
		Controller:       numasim.DefaultControllerConfig(mcfg.NumCCDs),
		LoRA:             lora.DefaultConfig(p.TableSize, p.EmbeddingDim),
		EnableTraining:   true,
		EnableScheduling: true,
		EnableReuse:      true,
		TrainBatch:       16,
		TrainInterval:    8,
		EmbLR:            0.05,
		InitialInfCCD:    mcfg.NumCCDs * 5 / 6,
	}
}

// Validate reports option errors.
func (o Options) Validate() error {
	if err := o.Profile.Validate(); err != nil {
		return err
	}
	if o.BatchSize < 0 {
		return fmt.Errorf("core: BatchSize must be non-negative")
	}
	if _, err := dlrm.ParseQuantMode(o.Quantization); err != nil {
		return err
	}
	if o.EnableTraining {
		if o.TrainBatch <= 0 {
			return fmt.Errorf("core: TrainBatch must be positive")
		}
		if o.TrainInterval <= 0 {
			return fmt.Errorf("core: TrainInterval must be positive")
		}
		if o.EmbLR <= 0 {
			return fmt.Errorf("core: EmbLR must be positive")
		}
	}
	return nil
}

// System is one LiveUpdate inference node: it serves requests and refreshes
// its own embeddings from cached interactions, with performance isolation.
//
// A System is safe for concurrent use, with the serve hot path split across
// two locks:
//
//   - The DLRM forward (serving.Node.Predict) runs OUTSIDE the node mutex: it
//     is read-only — adapter state is read through its copy-on-write atomic
//     publishes (see internal/lora), embedding access counters are atomic —
//     and allocation-free (a pooled forward scratch per in-flight request).
//     It holds only a read lock on paramMu, the rarely-written parameter
//     lock, so forwards never block behind another request's bookkeeping, a
//     Stats snapshot, or an in-flight fleet merge.
//   - The mutation tail (memory-model charges, ring push, latency/SLA
//     tracking, clock advance, the train-tick trigger) serializes on the node
//     mutex, preserving the single-server virtual-clock model: per-node tail
//     order alone determines every virtual-time statistic, so the lock split
//     leaves them bit-identical to the historical fully-locked path.
//   - paramMu is held for write only by in-place parameter mutations — the
//     co-located training tick and FullSync's base/dense overwrite. Fleet
//     publishes (PublishLoRA) stay copy-on-write and never block forwards.
//
// Lock order: mu before paramMu; the forward takes only paramMu (read).
// The exported fields are wiring for experiments and tests; touching them
// while another goroutine is inside Serve is not synchronized.
type System struct {
	Opts Options

	Clock      *simnet.Clock
	Machine    *numasim.Machine
	Controller *numasim.Controller
	Model      *dlrm.Model
	Base       *emt.Group
	LoRA       *lora.Set
	Node       *serving.Node

	mu         sync.Mutex // guards all mutable state below and inside Node/Machine/LoRA
	trainRNG   *tensor.RNG
	trainBuf   []trace.Sample    // reusable mini-batch buffer for trainTick
	trainCache dlrm.ForwardCache // reusable forward/backward buffers for trainTick
	sinceTrain int
	trainSteps uint64
	fullSyncs  uint64
	scratchSeq int32 // unique block ids for the naive trainer's scratch state

	// paramMu excludes lock-free forwards (read) from in-place parameter
	// writes (write): the LoRA training step mutates the current adapter
	// state directly and FullSync overwrites base tables and dense weights.
	// It is uncontended on the hot path — a read lock costs one atomic op.
	paramMu sync.RWMutex

	// Telemetry instruments (nil when Options.Telemetry is nil; the nil
	// receivers no-op, so disabled telemetry costs one branch per site).
	// All are side-band wall-clock observers of already-computed values.
	tel        *obs.Telemetry
	tracer     *obs.Tracer
	obsServed  *obs.Counter
	obsViol    *obs.Counter
	obsTicks   *obs.Counter
	obsLatency *obs.Histogram
}

// New assembles a system from opts.
func New(opts Options) (*System, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	clock := simnet.NewClock()
	machine, err := numasim.NewMachine(opts.Machine, clock)
	if err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(opts.Seed ^ 0xc0de)
	model, err := dlrm.NewModel(dlrm.ConfigForProfile(opts.Profile), rng)
	if err != nil {
		return nil, err
	}
	if err := model.SetQuantization(dlrm.QuantMode(opts.Quantization)); err != nil {
		return nil, err
	}
	base := emt.NewGroup(opts.Profile.NumTables, opts.Profile.TableSize,
		opts.Profile.EmbeddingDim, tensor.NewRNG(opts.Seed^0xe147))
	lcfg := opts.LoRA
	lcfg.Seed = opts.Seed
	set, err := lora.NewSet(base, lcfg)
	if err != nil {
		return nil, err
	}
	node, err := serving.NewNode(opts.Node, model, set, machine, clock)
	if err != nil {
		return nil, err
	}
	s := &System{
		Opts:     opts,
		Clock:    clock,
		Machine:  machine,
		Model:    model,
		Base:     base,
		LoRA:     set,
		Node:     node,
		trainRNG: tensor.NewRNG(opts.Seed ^ 0x7ea1),
	}
	if opts.EnableScheduling {
		ctl, err := numasim.NewController(opts.Controller, machine, clock, opts.InitialInfCCD)
		if err != nil {
			return nil, err
		}
		s.Controller = ctl
	}
	if tel := opts.Telemetry; tel != nil {
		reg := tel.Registry()
		s.tel = tel
		s.tracer = tel.Tracer()
		s.Node.Trace = s.tracer
		s.obsServed = reg.Counter("liveupdate_serve_requests_total",
			"Requests served (fleet-wide when replicas share a Telemetry).")
		s.obsViol = reg.Counter("liveupdate_sla_violations_total",
			"Requests whose virtual latency exceeded the SLA target.")
		s.obsTicks = reg.Counter("liveupdate_train_ticks_total",
			"Co-located LoRA training ticks executed.")
		s.obsLatency = reg.Histogram("liveupdate_serve_latency_seconds",
			"Virtual request latency in seconds (deterministic values; observing them is side-band).",
			0, 0.05, 25)
	}
	return s, nil
}

// MustNew panics on option errors.
func MustNew(opts Options) *System {
	s, err := New(opts)
	if err != nil {
		panic(err)
	}
	return s
}

// Response is the result of serving one request through a Server.
type Response struct {
	Prob    float64 // predicted click probability
	Latency float64 // request latency in virtual seconds
	Replica int     // index of the replica that served the request (0 on a single node)
}

// Stats is a point-in-time snapshot of a Server. For a single System the
// fleet fields (Replicas, Syncs, SyncBytes, SyncSeconds) are zero; for a
// Cluster the top-level fields are the merged fleet view and Replicas holds
// the per-replica breakdown.
type Stats struct {
	Served uint64 // requests processed

	// P50/P99 are latency quantiles over the tracker window, in seconds.
	// A Cluster with no retained samples (nothing served yet) reports NaN —
	// the documented "quantile undefined" sentinel; check math.IsNaN, not
	// == 0, which is a legitimate latency floor. A single System reports 0
	// before its first request (the tracker's empty-window value).
	P50           float64
	P99           float64
	MeanLatency   float64 // mean latency over all observed requests, seconds
	SLA           float64 // configured P99 target, seconds
	Violations    uint64  // requests above the SLA
	ViolationRate float64 // Violations / Served

	TrainSteps     uint64  // co-located LoRA training ticks
	FullSyncs      uint64  // full-parameter syncs installed
	MemoryOverhead float64 // LoRA bytes / base EMT bytes
	LoRAHotRows    int     // active adapter rows across tables
	LoRARank       int     // current adapter rank (table 0)

	InferenceHitRatio float64 // L3 hit ratio of the inference workload
	TrainingHitRatio  float64 // L3 hit ratio of the training workload
	VirtualTime       float64 // node clock, seconds (fleet: max across replicas)

	// Fleet-level fields, populated by Cluster.
	Replicas  []Stats // per-replica snapshots, in replica order
	Syncs     int     // priority-merge synchronizations performed
	SyncBytes int64   // cumulative exported LoRA payload (once per rank per sync)
	// SyncSeconds is the cumulative virtual time spent in syncs; it splits
	// into SyncComputeSeconds (gather + merge — off the serving critical
	// path under the asynchronous pipeline) and SyncPublishSeconds
	// (broadcasting and installing the merged state).
	SyncSeconds        float64
	SyncComputeSeconds float64
	SyncPublishSeconds float64

	// Fleet-scale sync fields, populated by Cluster. SyncTopology names the
	// collective pricing the sync fabric ("flat", "ring", "tree");
	// SyncWireBytes is the traffic the simulated collective actually moves
	// (≥ SyncBytes for more than one replica — gather fan-in plus merged
	// broadcast). SyncDeltaSavedBytes is wire volume avoided by delta syncs,
	// SyncCompressSavedBytes the volume avoided by payload compression, and
	// SyncCompressSeconds the modeled cpu time that compression cost (also
	// included in SyncSeconds).
	SyncTopology           string
	SyncWireBytes          int64
	SyncDeltaSavedBytes    int64
	SyncCompressSavedBytes int64
	SyncCompressSeconds    float64

	// Elastic-fleet fields, populated by a Cluster whose membership changed
	// at runtime (zero for a single System and for a static fleet). The
	// counters cover the whole run, including members that have since
	// departed; Members is the currently active fleet size.
	Members int // active replicas at snapshot time (0 on a single System)
	Joins   int // admissions after the seed fleet (join, replace, scale-up)
	Leaves  int // graceful departures (leave, scale-down)
	Fails   int // abrupt exclusions (fail, the fail half of replace)
	// CatchUpBytes/CatchUpSeconds bill the checkpoint + LoRA transfers that
	// brought joining replicas to the fleet epoch. The virtual time is
	// charged to the sync clock like sync traffic but reported separately
	// from SyncSeconds, so steady-state sync cost stays comparable across
	// runs with and without churn.
	CatchUpBytes   int64
	CatchUpSeconds float64

	// Wire front-end fields, populated only when the Server is exposed over
	// a listener by internal/netserve: per-endpoint admission outcomes, in
	// endpoint order. Empty for a purely in-process Server. Unlike every
	// field above, these count wall-clock wire traffic — they are not part
	// of the virtual-time determinism contract.
	Wire []EndpointStats
}

// EndpointStats is one wire endpoint's admission ledger: how many HTTP
// requests it accepted into the serving path, how many it shed with 429
// (admission queue full or SLA budget exhausted), and the live occupancy
// gauges at snapshot time. A batched wire request counts once regardless of
// how many samples it carries.
type EndpointStats struct {
	Endpoint  string // request path ("/serve", "/serve.bin")
	Accepted  uint64 // wire requests admitted into the serving path
	Completed uint64 // accepted requests whose serve finished (== Accepted after a clean drain)
	Shed      uint64 // wire requests rejected with 429 + Retry-After
	Inflight  int    // wire requests being served right now
	Queued    int    // wire requests waiting in the admission queue
}

// Serve processes one request through the serving path, interleaving
// co-located training ticks per the configured cadence. It returns the
// prediction and request latency; the only error is a sample whose sparse
// feature count does not match the profile.
//
// The forward runs before and outside the node mutex (see the System comment
// for the lock split); only the bookkeeping tail and the training trigger
// serialize. Because the forward reads no bookkeeping and the tail order per
// node is unchanged, every virtual-time statistic is bit-identical to the
// historical fully-locked implementation.
func (s *System) Serve(sample trace.Sample) (Response, error) {
	if len(sample.Sparse) != s.Opts.Profile.NumTables {
		return Response{}, fmt.Errorf("core: sample has %d sparse fields, profile %q expects %d",
			len(sample.Sparse), s.Opts.Profile.Name, s.Opts.Profile.NumTables)
	}
	s.paramMu.RLock()
	prob := s.Node.Predict(sample)
	s.paramMu.RUnlock()
	t0 := s.tracer.StageStart(obs.StageCommit) // includes mutex wait: contention is the signal
	s.mu.Lock()
	latency := s.Node.Commit(sample)
	s.tracer.StageEnd(obs.StageCommit, t0)
	if s.tickDueLocked() {
		s.tickLocked()
	}
	s.mu.Unlock()
	s.observeServe(latency)
	return Response{Prob: prob, Latency: latency}, nil
}

// observeServe feeds one committed request's already-computed virtual
// latency to the telemetry instruments. Pure side-band: it runs after the
// bookkeeping tail, off every lock, and writes nothing deterministic.
func (s *System) observeServe(latency float64) {
	if s.obsServed == nil {
		return
	}
	s.obsServed.Inc()
	if latency > s.Opts.Node.SLA {
		s.obsViol.Inc()
	}
	s.obsLatency.Observe(latency)
}

// ServeBatch serves samples in order on this node — the batch-amortized fast
// path: all forwards run first through the model's batched GEMM path (one
// matrix multiply per MLP layer for the whole batch, zero allocations,
// bit-identical to per-sample forwards), then one mutex acquisition covers
// every request's bookkeeping
// tail, each with its own memory charges, ring push, clock advance, and
// training trigger at exactly the per-request cadence. Virtual-time
// statistics are therefore identical to a loop over Serve; only the adapter
// values a forward observes may be marginally staler (a request scored before
// an earlier request's training tick — the bounded-staleness window the
// paper's design embraces). resps must have the same length as samples; it is
// filled in order.
func (s *System) ServeBatch(samples []trace.Sample, resps []Response) error {
	if len(resps) != len(samples) {
		return fmt.Errorf("core: ServeBatch got %d response slots for %d samples", len(resps), len(samples))
	}
	for i := range samples {
		if len(samples[i].Sparse) != s.Opts.Profile.NumTables {
			return fmt.Errorf("core: sample %d has %d sparse fields, profile %q expects %d",
				i, len(samples[i].Sparse), s.Opts.Profile.Name, s.Opts.Profile.NumTables)
		}
	}
	if len(samples) == 0 {
		return nil
	}
	pb := batchProbsPool.Get().(*[]float64)
	probs := *pb
	if cap(probs) < len(samples) {
		probs = make([]float64, len(samples))
	}
	probs = probs[:len(samples)]
	s.paramMu.RLock()
	s.Node.PredictBatch(samples, probs)
	s.paramMu.RUnlock()
	for i := range samples {
		resps[i] = Response{Prob: probs[i]}
	}
	*pb = probs[:0]
	batchProbsPool.Put(pb)
	// One commit span per batch, interrupted (closed and reopened) around
	// each training tick so the tick's cost is reported as its own stage.
	t0 := s.tracer.StageStart(obs.StageCommit)
	s.mu.Lock()
	for i := range samples {
		resps[i].Latency = s.Node.Commit(samples[i])
		if s.tickDueLocked() {
			s.tracer.StageEnd(obs.StageCommit, t0)
			s.tickLocked()
			t0 = s.tracer.StageStart(obs.StageCommit)
		}
	}
	s.mu.Unlock()
	s.tracer.StageEnd(obs.StageCommit, t0)
	if s.obsServed != nil {
		for i := range resps {
			s.observeServe(resps[i].Latency)
		}
	}
	return nil
}

// batchProbsPool pools ServeBatch's probability buffers (pointer-to-slice so
// Put does not allocate). Package-global: concurrent ServeBatch calls each
// check out their own buffer.
var batchProbsPool = sync.Pool{New: func() any { b := make([]float64, 0, 64); return &b }}

// tickDueLocked advances the post-request training cadence and reports
// whether this request fires a tick; callers hold s.mu.
func (s *System) tickDueLocked() bool {
	if !s.Opts.EnableTraining {
		return false
	}
	s.sinceTrain++
	if s.sinceTrain < s.Opts.TrainInterval {
		return false
	}
	s.sinceTrain = 0
	return true
}

// tickLocked runs the training tick a request fired, then lets the CCD
// controller look at the tail latency, all under one train_tick span;
// callers hold s.mu. The window's P99 is taken only when the controller is
// due to act on one (numasim.Controller.Due) — Observe would discard it
// otherwise, so the controller's decisions are unchanged.
func (s *System) tickLocked() {
	t0 := s.tracer.StageStart(obs.StageTrainTick)
	s.trainTick()
	if s.Controller != nil && s.Controller.Due() {
		s.Controller.Observe(s.Node.P99())
	}
	s.tracer.StageEnd(obs.StageTrainTick, t0)
}

// Stats snapshots the node's serving, training, and memory statistics.
func (s *System) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	hot := 0
	for _, a := range s.LoRA.Adapters {
		hot += a.ActiveCount()
	}
	return Stats{
		Served:            s.Node.Served(),
		P50:               s.Node.Lat.P50(),
		P99:               s.Node.P99(),
		MeanLatency:       s.Node.Lat.Mean(),
		SLA:               s.Opts.Node.SLA,
		Violations:        s.Node.Violations(),
		ViolationRate:     s.Node.ViolationRate(),
		TrainSteps:        s.trainSteps,
		FullSyncs:         s.fullSyncs,
		MemoryOverhead:    s.LoRA.OverheadRatio(),
		LoRAHotRows:       hot,
		LoRARank:          s.LoRA.Adapters[0].Rank(),
		InferenceHitRatio: s.Machine.HitRatio(numasim.Inference),
		TrainingHitRatio:  s.Machine.HitRatio(numasim.Training),
		VirtualTime:       s.Clock.Now(),
	}
}

// Lock acquires the node's serve mutex; Unlock releases it. They exist so
// fleet-level operations (the Cluster's priority-merge sync, consistency
// probes) can freeze a replica while touching its adapter state directly,
// keeping the concurrency contract intact even for callers that drive a
// replica obtained via Cluster.Replica. Application code should not need
// them.
func (s *System) Lock() { s.mu.Lock() }

// Unlock releases the mutex acquired by Lock.
func (s *System) Unlock() { s.mu.Unlock() }

// LatencyWindow returns a copy of the node's retained latency samples — the
// raw material for fleet-wide quantile merging — under the node lock.
func (s *System) LatencyWindow() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Node.LatencySamples()
}

// Telemetry returns the telemetry this node was built with (nil when
// observability is off). Export surfaces and the load driver discover it via
// interface assertion, the same pattern as DefaultBatchSize.
func (s *System) Telemetry() *obs.Telemetry { return s.tel }

// DefaultBatchSize returns the serving-batch hint configured at construction
// (0 = unbatched). The load driver uses it when its own configuration does
// not set a batch size.
func (s *System) DefaultBatchSize() int { return s.Opts.BatchSize }

// Profile returns the dataset profile this node serves. The wire front end
// advertises it to remote load generators so they synthesize samples with
// the matching feature shape.
func (s *System) Profile() trace.Profile { return s.Opts.Profile }

// LoRARank returns the node's current adapter rank (table 0).
func (s *System) LoRARank() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.LoRA.Adapters[0].Rank()
}

// SnapshotLoRA freezes the replica just long enough to export its modified
// adapter rows (clearing the supports, so training that lands while a merge
// is in flight feeds the next sync epoch) and returns the copy-on-write
// snapshot. This is the per-replica gather step of the asynchronous update
// pipeline: the node lock is held only for the O(modified rows) export,
// never across the merge itself.
func (s *System) SnapshotLoRA() []lora.TableState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.LoRA.Snapshot()
}

// PublishLoRA installs a merged adapter state stamped with the publisher's
// epoch. Each table swaps in atomically (copy-on-write), so the node lock is
// held only for the O(rows) install — the per-replica publish step of the
// asynchronous update pipeline. Serve calls in flight on OTHER replicas are
// unaffected; a concurrent Serve on this replica waits only for the install,
// not for the merge that produced it.
func (s *System) PublishLoRA(state []lora.TableState, epoch int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.LoRA.Publish(state, epoch)
}

// AdapterEpoch returns the epoch of the node's last published adapter state
// (-1 before the first sync). It reads the Set's atomic version pointer, so
// callers — reporting loops, freshness probes — never take the node lock and
// never block behind an in-flight request or merge.
func (s *System) AdapterEpoch() int64 { return s.LoRA.Epoch() }

// AdapterVersion returns the node's last published adapter Version (nil
// before the first sync), lock-free. The returned value is immutable: Serve
// and the trainer read the same tables through the adapters' own atomic
// state, so a caller can inspect a consistent published snapshot while the
// node keeps serving.
func (s *System) AdapterVersion() *lora.Version { return s.LoRA.Published() }

// TrainTick runs one co-located training step: a mini-batch sampled from the
// inference ring buffer, every embedding access charged to the machine model
// (through the reuse path when enabled), and one LoRA SGD step per sample.
// Dense layers stay frozen (paper Fig 7: only A and B receive gradients).
func (s *System) TrainTick() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.trainTick()
}

// trainTick is TrainTick's body; callers must hold s.mu. It takes the
// parameter write lock for its whole span: the LoRA SGD step mutates adapter
// state in place, which must not interleave with a lock-free forward. The
// mini-batch buffer and the forward cache are reused across ticks and
// samples, keeping the tick's steady-state allocation footprint low (the
// train-tick share of BenchmarkServeRequest's B/op).
func (s *System) trainTick() {
	if s.trainBuf == nil {
		s.trainBuf = make([]trace.Sample, s.Opts.TrainBatch)
	}
	batch := s.Node.Ring.SampleInto(s.trainRNG, s.trainBuf)
	if batch == nil {
		return
	}
	s.paramMu.Lock()
	defer s.paramMu.Unlock()
	numTables := int32(s.Opts.Profile.NumTables)
	cache := &s.trainCache
	cache.Frozen = true // only BackwardInput below
	for _, sample := range batch {
		// Charge the trainer's embedding traffic to the memory model. With
		// reuse, reads go through the prefetched shadow table. Without it,
		// the trainer touches its own replica blocks (a distinct address
		// space) with read + write-back traffic — the naive full-replica
		// pattern the paper calls out as cache-thrashing (§III-B O1, §IV-D).
		memTime := 0.0
		for t, ids := range sample.Sparse {
			for _, id := range ids {
				if s.Opts.EnableReuse {
					memTime += s.Machine.Access(numasim.Training, numasim.KindReuse, int32(t), id)
				} else {
					// Replica embedding read plus optimizer/gradient scratch
					// state. The scratch blocks are unique per step: streaming
					// write traffic that no L3 can retain.
					replica := numTables + int32(t)
					memTime += s.Machine.Access(numasim.Training, numasim.KindCached, replica, id)
					s.scratchSeq++
					memTime += s.Machine.Access(numasim.Training, numasim.KindCached, 2*numTables, s.scratchSeq)
				}
			}
		}
		s.Clock.Advance(memTime)
		// LoRA-only learning: base and dense weights frozen, so the backward
		// pass computes embedding gradients only. The cache is reused across
		// samples: Forward overwrites every field it reads.
		logit := s.Model.Forward(s.LoRA, sample.Dense, sample.Sparse, cache)
		dLogit := dlrm.Sigmoid(logit) - float64(sample.Label)
		dEmb := s.Model.BackwardInput(dLogit, cache)
		for t, g := range dEmb {
			s.LoRA.ApplyGrad(t, sample.Sparse[t], g, s.Opts.EmbLR)
		}
	}
	s.trainSteps++
	s.obsTicks.Inc()
}

// TrainSteps returns the number of co-located training ticks executed.
func (s *System) TrainSteps() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.trainSteps
}

// FullSync installs fresh base weights and dense parameters from a training
// cluster (the hourly mid-term tier of Fig 8) and resets the adapters.
func (s *System) FullSync(freshBase *emt.Group, freshModel *dlrm.Model) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Overwriting base tables and dense weights in place must exclude
	// lock-free forwards; adapter reset is copy-on-write but joins the same
	// critical section so a forward never mixes fresh weights with stale
	// adapters.
	s.paramMu.Lock()
	defer s.paramMu.Unlock()
	s.Base.CopyWeightsFrom(freshBase)
	s.Model.CopyWeightsFrom(freshModel)
	s.LoRA.ResetAdapters()
	s.fullSyncs++
}

// FullSyncs returns the number of full-parameter syncs performed.
func (s *System) FullSyncs() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fullSyncs
}

// MemoryOverhead returns LoRA bytes / base EMT bytes (the paper's <2% claim).
func (s *System) MemoryOverhead() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.LoRA.OverheadRatio()
}

// Power returns the modeled node power draw given the inference duty cycle
// in [0,1]; the training load is 1 when the co-located trainer is enabled.
func (s *System) Power(infLoad float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	trainLoad := 0.0
	if s.Opts.EnableTraining {
		trainLoad = 1
	}
	return s.Machine.Power(infLoad, trainLoad)
}

// CPUUtilization models node CPU utilization: the inference share plus the
// training share of CCDs that are actually busy.
func (s *System) CPUUtilization(infLoad float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := float64(s.Opts.Machine.NumCCDs)
	infCCDs := n
	trainCCDs := 0.0
	if s.Controller != nil {
		infCCDs = float64(s.Controller.InferenceCCDs())
		trainCCDs = float64(s.Controller.TrainingCCDs())
	} else if s.Opts.EnableTraining {
		trainCCDs = n // shared: training competes everywhere
		infCCDs = n
	}
	util := infLoad * infCCDs / n
	if s.Opts.EnableTraining {
		util += trainCCDs / n * 0.9 // trainer keeps its CCDs mostly busy
	}
	if util > 1 {
		util = 1
	}
	return util
}
