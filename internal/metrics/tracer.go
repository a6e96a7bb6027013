package metrics

import (
	"sort"
	"sync/atomic"
	"time"
)

// Stage identifies one timed segment of a request's life. The enum order is
// the pipeline order: route → queue wait → forward → commit → train tick →
// sync publish.
type Stage uint8

const (
	// StageRoute is shard routing: hash-ring lookup plus redirect checks.
	StageRoute Stage = iota
	// StageQueueWait is time spent queued in netserve admission control.
	StageQueueWait
	// StageForward is the model forward pass (embedding lookup + MLP).
	StageForward
	// StageCommit is the post-forward bookkeeping under the node mutex,
	// including the wait for it.
	StageCommit
	// StageTrainTick is a co-located training tick (mini-batch LoRA SGD plus
	// any rank adaptation it triggers) and the CCD controller's observation
	// after it; it runs under the node mutex on the request that fires it.
	StageTrainTick
	// StageSyncPublish is the publish stall of a fleet sync epoch: merged
	// adapter state being stamped and installed on the members.
	StageSyncPublish

	// NumStages is the number of traced stages.
	NumStages = int(StageSyncPublish) + 1
)

var stageNames = [NumStages]string{"route", "queue_wait", "forward", "commit", "train_tick", "sync_publish"}

// String returns the stage's snake_case name.
func (s Stage) String() string {
	if int(s) >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// span is one completed, sampled stage timing. Start is nanoseconds since
// the tracer's epoch (process-local), Dur is the stage's wall-clock duration.
type span struct {
	Stage   Stage
	StartNs int64
	DurNs   int64
}

// StageAgg accumulates sampled spans per stage: how many were recorded and
// their total duration.
type StageAgg struct {
	Count uint64
	SumNs int64
}

// spanSlot is one ring entry. Every field is individually atomic so a slot
// can be overwritten while a snapshot reads it without a data race; the seq
// field is a seqlock guard (0 = being written, otherwise 1+global index) that
// lets the reader detect and drop torn entries.
type spanSlot struct {
	seq   atomic.Uint64
	stage atomic.Uint32
	start atomic.Int64
	dur   atomic.Int64
}

// counterSlot pads each stage sampler's word to its own cache line (64
// bytes) so workers bumping different stages never false-share.
type counterSlot struct {
	v atomic.Uint64
	_ [56]byte
}

// Tracer records sampled stage timings into a fixed-size lock-free ring.
// The hot path (StageStart/StageEnd) performs no allocation, takes no lock,
// and on unsampled requests is a single atomic increment. A nil *Tracer is
// valid: StageStart returns -1 and StageEnd no-ops.
type Tracer struct {
	epoch       time.Time
	sampleEvery uint64
	mask        uint64
	samplers    [NumStages]counterSlot // hit by every worker on every request: one line each
	agg         [NumStages]struct {
		count atomic.Uint64
		sumNs atomic.Int64
	}
	cursor atomic.Uint64
	ring   []spanSlot
}

// spanRing is the span ring capacity of every Telemetry's tracer.
const spanRing = 4096

// newTracer returns a tracer sampling 1 in sampleEvery stage timings into a
// ring of the given capacity, rounded up to a power of two.
func newTracer(sampleEvery, ringSize int) *Tracer {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	n := 1
	for n < ringSize {
		n <<= 1
	}
	return &Tracer{
		epoch:       time.Now(),
		sampleEvery: uint64(sampleEvery),
		mask:        uint64(n - 1),
		ring:        make([]spanSlot, n),
	}
}

// nowNs is nanoseconds since the tracer's epoch, read off the monotonic
// clock. time.Since on a monotonic base does not allocate.
func (t *Tracer) nowNs() int64 { return int64(time.Since(t.epoch)) }

// StageStart begins timing one stage occurrence. It returns -1 when this
// occurrence is not sampled (or the tracer is nil); otherwise the start
// timestamp to hand back to StageEnd. Each stage samples independently
// (1 in sampleEvery of *its own* occurrences), so no per-request token has
// to thread through the layers.
func (t *Tracer) StageStart(stage Stage) int64 {
	if t == nil {
		return -1
	}
	if t.samplers[stage].v.Add(1)%t.sampleEvery != 0 {
		return -1
	}
	return t.nowNs()
}

// StageEnd completes a timing begun by StageStart. Passing the -1 sentinel
// (unsampled) is the common case and returns immediately.
func (t *Tracer) StageEnd(stage Stage, startNs int64) {
	if t == nil || startNs < 0 {
		return
	}
	dur := t.nowNs() - startNs
	t.agg[stage].count.Add(1)
	t.agg[stage].sumNs.Add(dur)

	i := t.cursor.Add(1) - 1
	slot := &t.ring[i&t.mask]
	slot.seq.Store(0) // mark in-progress so a concurrent read drops the slot
	slot.stage.Store(uint32(stage))
	slot.start.Store(startNs)
	slot.dur.Store(dur)
	slot.seq.Store(i + 1)
}

// StageTotals returns the per-stage aggregates over all sampled spans so
// far. Totals are monotone; callers wanting a window take a delta.
func (t *Tracer) StageTotals() [NumStages]StageAgg {
	var out [NumStages]StageAgg
	if t == nil {
		return out
	}
	for i := range out {
		out[i] = StageAgg{Count: t.agg[i].count.Load(), SumNs: t.agg[i].sumNs.Load()}
	}
	return out
}

// snapshot copies the currently valid spans out of the ring, oldest first.
// Entries being overwritten during the copy are detected by their seqlock
// guard and dropped; a span that survived a ring lap with an implausible
// payload (negative duration, unknown stage) is dropped too.
func (t *Tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	out := make([]span, 0, len(t.ring))
	for i := range t.ring {
		slot := &t.ring[i]
		seq1 := slot.seq.Load()
		if seq1 == 0 {
			continue
		}
		sp := span{
			Stage:   Stage(slot.stage.Load()),
			StartNs: slot.start.Load(),
			DurNs:   slot.dur.Load(),
		}
		if slot.seq.Load() != seq1 {
			continue // torn: overwritten mid-read
		}
		if int(sp.Stage) >= NumStages || sp.DurNs < 0 || sp.StartNs < 0 {
			continue
		}
		out = append(out, sp)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].StartNs < out[b].StartNs })
	return out
}
