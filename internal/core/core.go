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
	"liveupdate/internal/metrics"
	"liveupdate/internal/numasim"
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

	Node       NodeConfig
	Machine    numasim.Config
	Controller numasim.ControllerConfig
	LoRA       lora.Config

	EnableTraining   bool // co-locate the LoRA trainer
	EnableScheduling bool // NUMA-aware CCD partitioning + Algorithm 2
	EnableReuse      bool // shadow embedding table (prefetched reuse path)

	TrainBatch    int     // samples per co-located training tick
	TrainInterval int     // serve this many requests between training ticks
	EmbLR         float64 // LoRA learning rate

	// Telemetry, when non-nil, receives side-band wall-clock observability:
	// serve/violation/train-tick counters, a virtual-latency histogram, and
	// sampled stage spans (see internal/metrics). It is strictly an observer —
	// it never reads or mutates virtual-time state, so every deterministic
	// statistic is bit-identical with telemetry on or off. Replicas of one
	// fleet share a Telemetry; same-name instruments are get-or-create.
	Telemetry *metrics.Telemetry

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
		Profile: p,
		Seed:    seed,
		// The paper's serving constants: ~4 ms dense time, 10 ms SLA target.
		Node: NodeConfig{
			GPUDenseTime:  0.004,
			SLA:           0.010,
			RingCapacity:  8192,
			LatencyWindow: 4096,
		},
		Machine:          mcfg,
		Controller:       numasim.DefaultControllerConfig(mcfg.NumCCDs),
		LoRA:             lora.DefaultConfig(p.TableSize, p.EmbeddingDim),
		EnableTraining:   true,
		EnableScheduling: true,
		EnableReuse:      true,
		TrainBatch:       16,
		TrainInterval:    8,
		EmbLR:            0.05,
	}
}

// Validate reports option errors.
func (o Options) Validate() error {
	if err := o.Profile.Validate(); err != nil {
		return err
	}
	if _, err := dlrm.ParseQuantMode(o.Quantization); err != nil {
		return err
	}
	switch n := o.Node; {
	case n.GPUDenseTime <= 0:
		return fmt.Errorf("core: Node.GPUDenseTime must be positive")
	case n.SLA <= 0:
		return fmt.Errorf("core: Node.SLA must be positive")
	case n.RingCapacity <= 0:
		return fmt.Errorf("core: Node.RingCapacity must be positive")
	case n.LatencyWindow <= 0:
		return fmt.Errorf("core: Node.LatencyWindow must be positive")
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
//   - The DLRM forward (Node.predictBatch) runs OUTSIDE the node
//     mutex: it only reads parameters — dense weights, embedding rows and
//     adapter state — and is allocation-free (a pooled batch scratch per
//     in-flight call). It holds only a read lock on paramMu, so forwards
//     never block behind another request's bookkeeping, a Stats snapshot,
//     an adapter snapshot, or an in-flight fleet merge.
//   - The mutation tail (memory-model charges, ring push, latency/SLA
//     tracking, clock advance, the train-tick trigger) serializes on the node
//     mutex, preserving the single-server virtual-clock model: per-node tail
//     order alone determines every virtual-time statistic, so the lock split
//     leaves them bit-identical to the historical fully-locked path.
//   - paramMu is the one rule for parameters: forwards hold it for read, and
//     every parameter write holds it for write — the co-located training
//     tick, a fleet publish (PublishLoRA, which installs the merged rows in
//     place) and FullSync. A forward waits only for such a write itself
//     (a tick, or an O(rows) install), never for the merge behind a publish.
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
	Node       *Node

	mu         sync.Mutex // guards all mutable state below and inside Node/Machine/LoRA
	trainRNG   *tensor.RNG
	trainBuf   []trace.Sample // reusable mini-batch buffer for trainTick
	trainer    dlrm.Trainer   // the co-located trainer: no optimizer, dense layers frozen
	sinceTrain int
	trainSteps uint64
	fullSyncs  uint64

	// paramMu excludes forwards (read) from parameter writes (write): the
	// LoRA training step and a publish write the current adapter state in
	// place, and FullSync overwrites base tables and dense weights. It is
	// uncontended on the hot path — a read lock costs one atomic op.
	paramMu sync.RWMutex

	// Telemetry instruments (nil when Options.Telemetry is nil; the nil
	// receivers no-op, so disabled telemetry costs one branch per site).
	// All are side-band wall-clock observers of already-computed values.
	tel        *metrics.Telemetry
	tracer     *metrics.Tracer
	telServed  *metrics.Counter
	telViol    *metrics.Counter
	telTicks   *metrics.Counter
	telLatency *metrics.Histogram
}

// New assembles a system from opts.
func New(opts Options) (*System, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	clock := simnet.NewClock()
	// Presize the L3 index to every block this node touches: the tables,
	// plus the naive trainer's replica tables when it runs without reuse.
	mcfg := opts.Machine
	mcfg.Spaces, mcfg.Rows = opts.Profile.NumTables, opts.Profile.TableSize
	if opts.EnableTraining && !opts.EnableReuse {
		mcfg.Spaces *= 2
	}
	machine, err := numasim.NewMachine(mcfg, clock)
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
	s := &System{
		Opts:     opts,
		Clock:    clock,
		Machine:  machine,
		Model:    model,
		Base:     base,
		LoRA:     set,
		trainRNG: tensor.NewRNG(opts.Seed ^ 0x7ea1),
		trainer:  dlrm.Trainer{Model: model, Emb: set, EmbLR: opts.EmbLR},
	}
	s.Node = newNode(s)
	if opts.EnableScheduling {
		// Scheduling starts with five sixths of the CCDs serving inference.
		ctl, err := numasim.NewController(opts.Controller, machine, clock, opts.Machine.NumCCDs*5/6)
		if err != nil {
			return nil, err
		}
		s.Controller = ctl
	}
	if tel := opts.Telemetry; tel != nil {
		reg := tel.Registry()
		s.tel = tel
		s.tracer = tel.Tracer()
		s.telServed = reg.Counter("liveupdate_serve_requests_total",
			"Requests served (fleet-wide when replicas share a Telemetry).")
		s.telViol = reg.Counter("liveupdate_sla_violations_total",
			"Requests whose virtual latency exceeded the SLA target.")
		s.telTicks = reg.Counter("liveupdate_train_ticks_total",
			"Co-located LoRA training ticks executed.")
		s.telLatency = reg.Histogram("liveupdate_serve_latency_seconds",
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
// prediction and request latency; the only error is a sample whose shape
// does not match the profile (see checkSample). It is a one-sample
// ServeBatch: the forward, the bookkeeping tail and the tick trigger are
// the batch's, and so are the stage spans (one forward, one commit, and a
// train_tick when the request fires one).
func (s *System) Serve(sample trace.Sample) (Response, error) {
	if err := s.checkSample(sample); err != nil {
		return Response{}, err
	}
	samples := [1]trace.Sample{sample}
	var resps [1]Response
	s.serveChecked(samples[:], resps[:])
	return resps[0], nil
}

// checkSample rejects a sample whose shape the profile does not allow: a
// sparse table count or dense width other than the profile's, or an id
// outside [0, TableSize). Serve and ServeBatch call it before taking any
// lock, because the forward indexes tables and weights with these values:
// a panic there would leave paramMu read-locked and the next training tick
// blocked for good.
func (s *System) checkSample(sample trace.Sample) error {
	p := &s.Opts.Profile
	if len(sample.Sparse) != p.NumTables {
		return fmt.Errorf("core: sample has %d sparse fields, profile %q expects %d",
			len(sample.Sparse), p.Name, p.NumTables)
	}
	if len(sample.Dense) != p.NumDense {
		return fmt.Errorf("core: sample has %d dense values, profile %q expects %d",
			len(sample.Dense), p.Name, p.NumDense)
	}
	for t, ids := range sample.Sparse {
		for _, id := range ids {
			// One unsigned comparison covers both bounds.
			if uint32(id) >= uint32(p.TableSize) {
				return fmt.Errorf("core: sample id %d in table %d is outside [0, %d)", id, t, p.TableSize)
			}
		}
	}
	return nil
}

// observeServe feeds one committed request's already-computed virtual
// latency to the telemetry instruments. Pure side-band: it runs after the
// bookkeeping tail, off every lock, and writes nothing deterministic.
func (s *System) observeServe(latency float64) {
	if s.telServed == nil {
		return
	}
	s.telServed.Inc()
	if latency > s.Opts.Node.SLA {
		s.telViol.Inc()
	}
	s.telLatency.Observe(latency)
}

// ServeBatch serves samples in order on this node — the batch-amortized fast
// path: all forwards run first through the model's batched pass (the whole
// batch layer by layer, zero allocations, bit-identical to per-sample
// forwards), then one mutex acquisition covers
// every request's bookkeeping tail, each with its own memory charges, ring
// push, clock advance, and training trigger at exactly the per-request
// cadence. Virtual-time statistics are therefore identical to a loop over
// Serve; only the adapter values a forward observes may be marginally
// staler (a request scored before an earlier request's training tick — the
// bounded-staleness window the paper's design embraces). resps must have the
// same length as samples; it is filled in order.
//
// The forward runs before and outside the node mutex, under a read lock on
// paramMu (see the System comment for the lock split); only the bookkeeping
// tail and the training trigger serialize. Because the forward reads no
// bookkeeping and the tail order per node is unchanged, every virtual-time
// statistic is bit-identical to a fully-locked implementation.
func (s *System) ServeBatch(samples []trace.Sample, resps []Response) error {
	if len(resps) != len(samples) {
		return fmt.Errorf("core: ServeBatch got %d response slots for %d samples", len(resps), len(samples))
	}
	for i := range samples {
		if err := s.checkSample(samples[i]); err != nil {
			return fmt.Errorf("%w (batch index %d)", err, i)
		}
	}
	if len(samples) > 0 {
		s.serveChecked(samples, resps)
	}
	return nil
}

// serveChecked is the one serve body behind Serve and ServeBatch, for a
// non-empty batch whose samples passed checkSample.
func (s *System) serveChecked(samples []trace.Sample, resps []Response) {
	var probs [forwardChunk]float64
	s.paramMu.RLock()
	for lo := 0; lo < len(samples); lo += forwardChunk {
		part := samples[lo:min(lo+forwardChunk, len(samples))]
		s.Node.predictBatch(part, probs[:len(part)])
		for i := range part {
			resps[lo+i] = Response{Prob: probs[i]}
		}
	}
	s.paramMu.RUnlock()
	// One commit span per batch (it includes the mutex wait: contention is
	// the signal), closed around each training tick so the tick's cost is
	// reported as its own stage, and reopened only while samples remain.
	t0 := s.tracer.StageStart(metrics.StageCommit)
	s.mu.Lock()
	for i := range samples {
		resps[i].Latency = s.Node.Commit(samples[i])
		if s.tickDueLocked() {
			s.tracer.StageEnd(metrics.StageCommit, t0)
			s.tickLocked()
			t0 = -1
			if i+1 < len(samples) {
				t0 = s.tracer.StageStart(metrics.StageCommit)
			}
		}
	}
	s.mu.Unlock()
	s.tracer.StageEnd(metrics.StageCommit, t0)
	if s.telServed != nil {
		for i := range resps {
			s.observeServe(resps[i].Latency)
		}
	}
}

// forwardChunk caps the samples one forward pass scores, so the
// probabilities fit a stack buffer; a longer batch runs several passes.
const forwardChunk = 64

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
	t0 := s.tracer.StageStart(metrics.StageTrainTick)
	s.trainTick()
	if s.Controller != nil && s.Controller.Due() {
		s.Controller.Observe(s.Node.P99())
	}
	s.tracer.StageEnd(metrics.StageTrainTick, t0)
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
		Served:            s.Node.served,
		P50:               s.Node.lat.P50(),
		P99:               s.Node.P99(),
		MeanLatency:       s.Node.lat.Mean(),
		SLA:               s.Opts.Node.SLA,
		Violations:        s.Node.violations,
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
	return s.Node.lat.Samples()
}

// Telemetry returns the telemetry this node was built with (nil when
// observability is off). Export surfaces and the load driver discover it via
// interface assertion.
func (s *System) Telemetry() *metrics.Telemetry { return s.tel }

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

// SnapshotLoRA freezes the replica just long enough to copy out its modified
// adapter rows (clearing the supports, so training that lands while a merge
// is in flight feeds the next sync epoch) and returns the copy. This is the
// per-replica gather step of the asynchronous update pipeline: the node lock
// is held only for the O(modified rows) export, never across the merge
// itself. Forwards keep running: the export only reads the factors.
func (s *System) SnapshotLoRA() []lora.TableState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.LoRA.Snapshot()
}

// PublishLoRA installs a merged adapter state stamped with the publisher's
// epoch — the per-replica publish step of the asynchronous update pipeline.
// The merged rows and B are written in place into the live adapters, so it
// holds the node mutex and paramMu for write, like a training tick, for the
// O(rows) install only. Serve calls in flight on OTHER replicas are
// unaffected; a concurrent Serve on this replica waits only for the install,
// not for the merge that produced it.
func (s *System) PublishLoRA(state []lora.TableState, epoch int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.paramMu.Lock()
	defer s.paramMu.Unlock()
	s.LoRA.Publish(state, epoch)
}

// AdapterEpoch returns the epoch of the node's last published adapter state
// (-1 before the first sync). It reads the Set's atomic epoch counter, so
// callers — reporting loops, freshness probes — never take the node lock and
// never block behind an in-flight request or merge.
func (s *System) AdapterEpoch() int64 { return s.LoRA.Epoch() }

// TrainTick runs one co-located training step: a mini-batch sampled from the
// inference ring buffer, every embedding access charged to the machine model
// (through the reuse path when enabled), and one LoRA SGD step per sample.
// Dense layers stay frozen (paper Fig 7: only A and B receive gradients).
func (s *System) TrainTick() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.trainTick()
}

// trainTick is TrainTick's body; callers must hold s.mu. It first charges
// the whole mini-batch's embedding traffic to the memory model, then runs it
// through the node's frozen-dense Trainer under the parameter write lock: the
// LoRA SGD step mutates adapter state in place, which must not interleave
// with a forward. The charges read only ids and the training reads
// neither the clock nor the machine, so this is the order-for-order
// equivalent of charging and training sample by sample. The mini-batch
// buffer and the trainer's buffers are reused across ticks: a warm tick
// allocates nothing.
func (s *System) trainTick() {
	if s.trainBuf == nil {
		s.trainBuf = make([]trace.Sample, s.Opts.TrainBatch)
	}
	batch := s.Node.ring.sampleInto(s.trainRNG, s.trainBuf)
	if batch == nil {
		return
	}
	numTables := int32(s.Opts.Profile.NumTables)
	for _, sample := range batch {
		// With reuse, reads go through the prefetched shadow table. Without
		// it, the trainer touches its own replica blocks (a distinct address
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
					memTime += s.Machine.Access(numasim.Training, numasim.KindStream, 2*numTables, 0)
				}
			}
		}
		s.Clock.Advance(memTime)
	}
	s.paramMu.Lock()
	s.trainer.TrainBatch(batch)
	s.paramMu.Unlock()
	s.trainSteps++
	s.telTicks.Inc()
}

// FullSync installs fresh base weights and dense parameters from a training
// cluster (the hourly mid-term tier of Fig 8) and resets the adapters.
func (s *System) FullSync(freshBase *emt.Group, freshModel *dlrm.Model) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Overwriting base tables and dense weights and resetting the adapters
	// are parameter writes: one critical section, so a forward never mixes
	// fresh weights with stale adapters.
	s.paramMu.Lock()
	defer s.paramMu.Unlock()
	s.Base.CopyWeightsFrom(freshBase)
	s.Model.CopyWeightsFrom(freshModel)
	s.LoRA.ResetAdapters()
	s.fullSyncs++
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
