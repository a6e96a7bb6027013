package core

import (
	"strings"
	"testing"

	"liveupdate/internal/numasim"
	"liveupdate/internal/tensor"
	"liveupdate/internal/trace"
)

// newTestNode returns a System whose Node is driven directly: Predict then
// Commit per request, the way the System's serve path runs them, with no
// training ticks in between.
func newTestNode(t *testing.T) (*System, *trace.Generator) {
	t.Helper()
	o := testOptions()
	o.EnableTraining = false
	o.EnableScheduling = false
	return MustNew(o), trace.MustNewGenerator(testProfile(), 2)
}

func TestRingBufferBasics(t *testing.T) {
	r := ringBuffer{buf: make([]trace.Sample, 3)}
	for i := 0; i < 5; i++ {
		r.push(trace.Sample{Time: float64(i)})
	}
	if r.count != 3 {
		t.Fatalf("len %d, want 3 (capacity)", r.count)
	}
	if r.next != 2 {
		t.Fatalf("next %d, want 2 (five pushes round a ring of 3)", r.next)
	}
	// The oldest two were overwritten: times 2, 3, 4 remain.
	for i, s := range r.buf {
		if s.Time < 2 {
			t.Fatalf("slot %d holds overwritten sample %v", i, s.Time)
		}
	}
}

// TestRingBufferSample: sampleInto returns nil without drawing from the RNG
// when the ring is empty, and otherwise fills dst with retained samples.
func TestRingBufferSample(t *testing.T) {
	r := ringBuffer{buf: make([]trace.Sample, 10)}
	rng, ref := tensor.NewRNG(3), tensor.NewRNG(3)
	if r.sampleInto(rng, make([]trace.Sample, 5)) != nil {
		t.Fatal("sampling an empty buffer must return nil")
	}
	if rng.Uint64() != ref.Uint64() {
		t.Fatal("sampling an empty buffer must not draw from the RNG")
	}
	for i := 0; i < 4; i++ {
		r.push(trace.Sample{Time: float64(i)})
	}
	dst := make([]trace.Sample, 20)
	for i := range dst {
		dst[i].Time = -1
	}
	batch := r.sampleInto(rng, dst)
	if len(batch) != 20 || &batch[0] != &dst[0] {
		t.Fatalf("sampleInto must fill and return dst, got %d samples", len(batch))
	}
	for _, s := range batch {
		if s.Time < 0 || s.Time > 3 {
			t.Fatalf("sampled ghost element %v", s.Time)
		}
	}
	if r.sampleInto(rng, nil) != nil {
		t.Fatal("an empty dst must return nil")
	}
}

// TestNodeConfigValidate: Options.Validate rejects a non-positive value in
// each node field, so a bad node config fails at validation, not inside a
// replica spawn.
func TestNodeConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		field string
		zero  func(*NodeConfig)
	}{
		{"GPUDenseTime", func(c *NodeConfig) { c.GPUDenseTime = 0 }},
		{"SLA", func(c *NodeConfig) { c.SLA = 0 }},
		{"RingCapacity", func(c *NodeConfig) { c.RingCapacity = 0 }},
		{"LatencyWindow", func(c *NodeConfig) { c.LatencyWindow = -1 }},
	} {
		o := testOptions()
		tc.zero(&o.Node)
		err := o.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("Node.%s out of range: Validate = %v, want an error naming it", tc.field, err)
		}
		if _, err := New(o); err == nil {
			t.Errorf("Node.%s out of range: New must fail", tc.field)
		}
	}
}

// serve is one request through the node's two halves, the way System runs
// them: Predict, then Commit.
func serve(n *Node, s trace.Sample) (prob, latency float64) {
	return n.Predict(s), n.Commit(s)
}

func TestServeReturnsLatencyAndAdvancesClock(t *testing.T) {
	sys, gen := newTestNode(t)
	before := sys.Clock.Now()
	prob, lat := serve(sys.Node, gen.Next())
	if prob <= 0 || prob >= 1 {
		t.Fatalf("prob %v", prob)
	}
	if lat < sys.Opts.Node.GPUDenseTime {
		t.Fatalf("latency %v below GPU floor", lat)
	}
	if sys.Clock.Now() <= before {
		t.Fatal("serve must advance the clock")
	}
	if sys.Node.served != 1 {
		t.Fatalf("served %d", sys.Node.served)
	}
	if sys.Node.ring.count != 1 {
		t.Fatal("request must be cached in the ring buffer")
	}
}

func TestServeWarmLatencyDropsAndP99(t *testing.T) {
	sys, gen := newTestNode(t)
	// Serve the same sample repeatedly: after the first, rows are cached.
	s := gen.Next()
	_, cold := serve(sys.Node, s)
	var warm float64
	for i := 0; i < 50; i++ {
		_, warm = serve(sys.Node, s)
	}
	if warm >= cold {
		t.Fatalf("warm latency %v should be below cold %v", warm, cold)
	}
	if sys.Node.P99() <= 0 {
		t.Fatal("P99 must be positive after serving")
	}
}

func TestViolationTracking(t *testing.T) {
	sys, gen := newTestNode(t)
	sys.Opts.Node.SLA = 1e-9 // everything violates
	for i := 0; i < 10; i++ {
		serve(sys.Node, gen.Next())
	}
	if sys.Node.ViolationRate() != 1 {
		t.Fatalf("violation rate %v, want 1", sys.Node.ViolationRate())
	}
}

// TestServeBatch: a batch is scored by one predictBatch and committed one
// request at a time, as System.ServeBatch runs it.
func TestServeBatch(t *testing.T) {
	sys, gen := newTestNode(t)
	batch := gen.Batch(20, 1)
	probs := make([]float64, len(batch))
	sys.Node.predictBatch(batch, probs)
	for i, s := range batch {
		if probs[i] <= 0 || probs[i] >= 1 {
			t.Fatalf("prob %d = %v", i, probs[i])
		}
		if lat := sys.Node.Commit(s); lat <= 0 {
			t.Fatalf("latency %d = %v", i, lat)
		}
	}
	if sys.Node.served != 20 {
		t.Fatalf("served %d", sys.Node.served)
	}
	sys.Node.predictBatch(nil, nil) // an empty batch is a no-op
}

func TestHotRowsServedFromCache(t *testing.T) {
	sys, gen := newTestNode(t)
	// Zipf skew means the hot set gets cached quickly: after a warmup the
	// inference hit ratio should be substantial (paper Fig 12 → Fig 11 link).
	for i := 0; i < 300; i++ {
		serve(sys.Node, gen.Next())
	}
	sys.Machine.ResetStats()
	for i := 0; i < 300; i++ {
		serve(sys.Node, gen.Next())
	}
	if hr := sys.Machine.HitRatio(numasim.Inference); hr < 0.3 {
		t.Fatalf("steady-state hit ratio %v too low for Zipf traffic", hr)
	}
}

// --- Serving fast path ---

// TestServeBatchMatchesServeLoop: scoring a batch with one predictBatch and
// then committing it gives bit-identical probabilities and virtual-time state
// to Predict + Commit per request.
func TestServeBatchMatchesServeLoop(t *testing.T) {
	a, gen := newTestNode(t)
	b, _ := newTestNode(t)
	batch := make([]trace.Sample, 64)
	for i := range batch {
		batch[i] = gen.Next()
	}
	probs := make([]float64, len(batch))
	b.Node.predictBatch(batch, probs)
	for i, s := range batch {
		prob, latA := serve(a.Node, s)
		if latB := b.Node.Commit(s); prob != probs[i] || latA != latB {
			t.Fatalf("req %d: one at a time (%v, %v), batched (%v, %v)", i, prob, latA, probs[i], latB)
		}
	}
	if a.Node.served != b.Node.served || a.Clock.Now() != b.Clock.Now() ||
		a.Node.violations != b.Node.violations || a.Node.P99() != b.Node.P99() ||
		a.Node.ring.count != b.Node.ring.count || a.Node.ring.next != b.Node.ring.next {
		t.Fatalf("batch bookkeeping diverged: served %d/%d clock %v/%v",
			a.Node.served, b.Node.served, a.Clock.Now(), b.Clock.Now())
	}
}

// TestNodePredictZeroAlloc: the Predict half performs no heap allocation —
// the property the CI alloc gate enforces end to end.
func TestNodePredictZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sys, gen := newTestNode(t)
	s := gen.Next()
	if allocs := testing.AllocsPerRun(200, func() { sys.Node.Predict(s) }); allocs != 0 {
		t.Fatalf("Node.Predict allocates %v per run, want 0", allocs)
	}
}
