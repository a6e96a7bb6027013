// Package serving implements the inference-side of a LiveUpdate node (paper
// Fig 7, red path): request serving with per-row memory-system accounting,
// the shared inference-data ring buffer that feeds the co-located trainer
// (10-minute retention, §IV-E), and P99 latency / SLA tracking.
package serving

import (
	"fmt"
	"sync/atomic"

	"liveupdate/internal/dlrm"
	"liveupdate/internal/metrics"
	"liveupdate/internal/numasim"
	"liveupdate/internal/simnet"
	"liveupdate/internal/tensor"
	"liveupdate/internal/trace"
)

// RingBuffer caches recent inference samples (features + labels) as the
// training dataset for the online update path. Old samples are overwritten
// once capacity is reached, matching the paper's 10-minute retention window.
type RingBuffer struct {
	buf   []trace.Sample
	next  int
	count int
	total uint64
}

// NewRingBuffer creates a buffer holding up to capacity samples.
func NewRingBuffer(capacity int) *RingBuffer {
	if capacity <= 0 {
		panic("serving: ring buffer capacity must be positive")
	}
	return &RingBuffer{buf: make([]trace.Sample, capacity)}
}

// Push appends a sample, overwriting the oldest when full.
func (r *RingBuffer) Push(s trace.Sample) {
	r.buf[r.next] = s
	r.next = (r.next + 1) % len(r.buf)
	if r.count < len(r.buf) {
		r.count++
	}
	r.total++
}

// Len returns the number of retained samples.
func (r *RingBuffer) Len() int { return r.count }

// Total returns the number of samples ever pushed.
func (r *RingBuffer) Total() uint64 { return r.total }

// SampleInto draws len(dst) samples uniformly (with replacement) from the
// retained window into dst and returns it — the trainer's mini-batch source,
// allocation-free through the caller's buffer. It returns nil, drawing
// nothing from rng, when the buffer or dst is empty.
func (r *RingBuffer) SampleInto(rng *tensor.RNG, dst []trace.Sample) []trace.Sample {
	if r.count == 0 || len(dst) == 0 {
		return nil
	}
	for i := range dst {
		dst[i] = r.buf[rng.Intn(r.count)]
	}
	return dst
}

// NodeConfig sets serving-path constants.
type NodeConfig struct {
	// GPUDenseTime is the dense-layer forward time per request on the
	// simulated GPU (paper: single-digit ms class).
	GPUDenseTime float64
	// SLA is the P99 target (paper: 10-20 ms). Latencies above it count as
	// violations.
	SLA float64
	// RingCapacity is the inference-data cache size in samples.
	RingCapacity int
	// LatencyWindow is the number of samples the P99 tracker retains.
	LatencyWindow int
}

// DefaultNodeConfig mirrors the paper's serving constants: ~4 ms dense time,
// 10 ms SLA target.
func DefaultNodeConfig() NodeConfig {
	return NodeConfig{
		GPUDenseTime:  0.004,
		SLA:           0.010,
		RingCapacity:  8192,
		LatencyWindow: 4096,
	}
}

// Validate reports configuration errors.
func (c NodeConfig) Validate() error {
	switch {
	case c.GPUDenseTime <= 0:
		return fmt.Errorf("serving: GPUDenseTime must be positive")
	case c.SLA <= 0:
		return fmt.Errorf("serving: SLA must be positive")
	case c.RingCapacity <= 0:
		return fmt.Errorf("serving: RingCapacity must be positive")
	case c.LatencyWindow <= 0:
		return fmt.Errorf("serving: LatencyWindow must be positive")
	}
	return nil
}

// Node is one inference server: it scores requests through the DLRM using
// an EmbeddingSource, charges every embedding-row access to the machine
// model, caches request data for the trainer, and tracks tail latency.
//
// The serving path is split in two (see core.System for the locking): Predict
// is read-only and lock-free — model weights and adapter state are read
// through their copy-on-write publishes, embedding access counters are
// atomic — while Commit mutates node state (ring, tracker, machine model,
// clock) and must be serialized by the owner.
type Node struct {
	Cfg     NodeConfig
	Model   *dlrm.Model
	Emb     dlrm.EmbeddingSource
	Machine *numasim.Machine
	Clock   *simnet.Clock
	Ring    *RingBuffer
	Lat     *metrics.LatencyTracker

	// Trace, when non-nil, records sampled wall-clock forward-stage spans.
	// A nil tracer no-ops, so the unobserved fast path pays one branch.
	Trace *metrics.Tracer

	// served and violations are atomic so fleet-level code (merged stats,
	// progress reporting) can read them without taking the owning replica's
	// serve lock. All other Node state is guarded by the owner (core.System).
	served     atomic.Uint64
	violations atomic.Uint64
}

// NewNode assembles a serving node.
func NewNode(cfg NodeConfig, model *dlrm.Model, emb dlrm.EmbeddingSource,
	machine *numasim.Machine, clock *simnet.Clock) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Node{
		Cfg:     cfg,
		Model:   model,
		Emb:     emb,
		Machine: machine,
		Clock:   clock,
		Ring:    NewRingBuffer(cfg.RingCapacity),
		Lat:     metrics.NewLatencyTracker(cfg.LatencyWindow),
	}, nil
}

// Predict scores one request through the DLRM and the node's embedding
// source. It is the lock-free half of the serving fast path: it touches no
// node bookkeeping (ring, clocks, counters, machine model), runs as a batch
// of one through the model's pooled inference scratch with zero heap
// allocations, and is safe concurrently with Commit, Stats reads, and
// adapter publishes on the same node.
func (n *Node) Predict(s trace.Sample) float64 {
	t0 := n.Trace.StageStart(metrics.StageForward)
	p := n.Model.Predict(n.Emb, s.Dense, s.Sparse)
	n.Trace.StageEnd(metrics.StageForward, t0)
	return p
}

// Commit performs one request's bookkeeping tail: embedding-row fetches are
// charged to the memory model (inference workload, cached path), the request
// is cached for the online trainer, tail latency and SLA violations are
// tracked, and the clock advances by the request latency (sequential-server
// model). It returns the request latency in seconds. Commit mutates node
// state and must be serialized by the owner (core.System's mutex); per-node
// Commit order is what the virtual-time determinism contract is defined over.
func (n *Node) Commit(s trace.Sample) (latency float64) {
	memTime := 0.0
	for t, ids := range s.Sparse {
		for _, id := range ids {
			memTime += n.Machine.Access(numasim.Inference, numasim.KindCached, int32(t), id)
		}
	}
	latency = memTime + n.Cfg.GPUDenseTime
	n.Ring.Push(s)
	n.Lat.Observe(latency)
	n.served.Add(1)
	if latency > n.Cfg.SLA {
		n.violations.Add(1)
	}
	n.Clock.Advance(latency)
	return latency
}

// PredictBatch scores samples in order, writing click probabilities into
// probs (len(probs) == len(samples)). It is the batched form of Predict —
// lock-free, zero-alloc in steady state — and routes through the model's
// GEMM pass: one matrix multiply per MLP layer for the whole batch, with
// results bit-identical to per-sample Predict calls.
func (n *Node) PredictBatch(samples []trace.Sample, probs []float64) {
	t0 := n.Trace.StageStart(metrics.StageForward) // one forward span per batch
	n.Model.PredictSamples(n.Emb, samples, probs)
	n.Trace.StageEnd(metrics.StageForward, t0)
}

// P99 returns the current 99th-percentile latency over the tracker window.
func (n *Node) P99() float64 { return n.Lat.P99() }

// Served returns the number of requests processed.
func (n *Node) Served() uint64 { return n.served.Load() }

// Violations returns the number of requests that exceeded the SLA. Exposing
// the raw count (not just the rate) lets a fleet merge per-replica violation
// statistics exactly.
func (n *Node) Violations() uint64 { return n.violations.Load() }

// LatencySamples returns a copy of the tracker's retained latency window, the
// raw material for cross-replica quantile merging.
func (n *Node) LatencySamples() []float64 { return n.Lat.Samples() }

// ViolationRate returns the fraction of requests exceeding the SLA.
func (n *Node) ViolationRate() float64 {
	served := n.served.Load()
	if served == 0 {
		return 0
	}
	return float64(n.violations.Load()) / float64(served)
}
