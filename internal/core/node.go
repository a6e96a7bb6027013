package core

import (
	"liveupdate/internal/metrics"
	"liveupdate/internal/numasim"
	"liveupdate/internal/tensor"
	"liveupdate/internal/trace"
)

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

// Node is the inference side of a System (paper Fig 7, red path): it scores
// requests through the System's DLRM and adapter set, charges every
// embedding-row access to the System's machine model, caches request data
// in the ring that feeds the co-located trainer (10-minute retention,
// §IV-E), and tracks tail latency against the SLA. The model, embedding
// source, machine, clock and tracer are the System's; the Node owns only the
// ring, the latency tracker and the served/violation counts.
//
// The serving path is split in two (see System for the locking): Predict only
// reads parameters — model weights and adapter state — and takes no lock of
// its own, so its caller must exclude parameter writes (System's forwards hold
// paramMu for read); Commit mutates node and machine state and must be
// serialized by the System's mutex.
type Node struct {
	sys  *System
	ring ringBuffer
	lat  *metrics.LatencyTracker

	// Guarded, like ring and lat, by the System's mutex.
	served     uint64 // requests committed
	violations uint64 // committed requests slower than the SLA
}

func newNode(s *System) *Node {
	cfg := s.Opts.Node
	return &Node{
		sys:  s,
		ring: ringBuffer{buf: make([]trace.Sample, cfg.RingCapacity)},
		lat:  metrics.NewLatencyTracker(cfg.LatencyWindow),
	}
}

// Predict scores one request through the DLRM and the System's adapter set.
// It is the read-only half of the serving fast path: it touches no node
// bookkeeping (ring, clocks, counters, machine model), runs as a batch of
// one through the model's pooled inference scratch with zero heap
// allocations, and is safe concurrently with Commit, Stats reads and adapter
// snapshots on the same node — but not with a training tick, an adapter
// publish or a FullSync, which write the parameters it reads.
func (n *Node) Predict(s trace.Sample) float64 {
	t0 := n.sys.tracer.StageStart(metrics.StageForward)
	p := n.sys.Model.Predict(n.sys.LoRA, s.Dense, s.Sparse)
	n.sys.tracer.StageEnd(metrics.StageForward, t0)
	return p
}

// predictBatch scores samples in order, writing click probabilities into
// probs (len(probs) == len(samples)). It is the batched form of Predict —
// read-only, zero-alloc in steady state — and routes through the model's
// batched pass, the whole batch layer by layer, with results bit-identical
// to per-sample Predict calls.
func (n *Node) predictBatch(samples []trace.Sample, probs []float64) {
	t0 := n.sys.tracer.StageStart(metrics.StageForward) // one forward span per batch
	n.sys.Model.PredictSamples(n.sys.LoRA, samples, probs)
	n.sys.tracer.StageEnd(metrics.StageForward, t0)
}

// Commit performs one request's bookkeeping tail: embedding-row fetches are
// charged to the memory model (inference workload, cached path), the request
// is cached for the online trainer, tail latency and SLA violations are
// tracked, and the clock advances by the request latency (sequential-server
// model). It returns the request latency in seconds. Commit mutates node
// state and must be serialized by the System's mutex; per-node Commit order
// is what the virtual-time determinism contract is defined over.
func (n *Node) Commit(s trace.Sample) (latency float64) {
	memTime := 0.0
	for t, ids := range s.Sparse {
		for _, id := range ids {
			memTime += n.sys.Machine.Access(numasim.Inference, numasim.KindCached, int32(t), id)
		}
	}
	cfg := &n.sys.Opts.Node
	latency = memTime + cfg.GPUDenseTime
	n.ring.push(s)
	n.lat.Observe(latency)
	n.served++
	if latency > cfg.SLA {
		n.violations++
	}
	n.sys.Clock.Advance(latency)
	return latency
}

// P99 returns the current 99th-percentile latency over the tracker window.
func (n *Node) P99() float64 { return n.lat.P99() }

// ViolationRate returns the fraction of requests exceeding the SLA. Like
// P99, it reads state Commit writes, so it is serialized with Commit (System
// holds its mutex).
func (n *Node) ViolationRate() float64 {
	if n.served == 0 {
		return 0
	}
	return float64(n.violations) / float64(n.served)
}

// ringBuffer caches recent inference samples (features + labels) as the
// training dataset for the online update path. Old samples are overwritten
// once capacity is reached, matching the paper's 10-minute retention window.
type ringBuffer struct {
	buf   []trace.Sample
	next  int
	count int
	total uint64
}

// push appends a sample, overwriting the oldest when full.
func (r *ringBuffer) push(s trace.Sample) {
	r.buf[r.next] = s
	r.next = (r.next + 1) % len(r.buf)
	if r.count < len(r.buf) {
		r.count++
	}
	r.total++
}

// sampleInto draws len(dst) samples uniformly (with replacement) from the
// retained window into dst and returns it — the trainer's mini-batch source,
// allocation-free through the caller's buffer. It returns nil, drawing
// nothing from rng, when the buffer or dst is empty.
func (r *ringBuffer) sampleInto(rng *tensor.RNG, dst []trace.Sample) []trace.Sample {
	if r.count == 0 || len(dst) == 0 {
		return nil
	}
	for i := range dst {
		dst[i] = r.buf[rng.Intn(r.count)]
	}
	return dst
}
