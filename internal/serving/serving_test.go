package serving

import (
	"testing"

	"liveupdate/internal/dlrm"
	"liveupdate/internal/emt"
	"liveupdate/internal/numasim"
	"liveupdate/internal/simnet"
	"liveupdate/internal/tensor"
	"liveupdate/internal/trace"
)

func testProfile() trace.Profile {
	p := trace.Profiles()["criteo"]
	p.NumTables = 3
	p.TableSize = 200
	p.NumDense = 4
	p.MultiHot = []int{1, 1, 2}
	return p
}

func newTestNode(t *testing.T) (*Node, *trace.Generator) {
	t.Helper()
	p := testProfile()
	rng := tensor.NewRNG(1)
	cfg := dlrm.Config{
		NumTables: p.NumTables, EmbeddingDim: p.EmbeddingDim, NumDense: p.NumDense,
		BottomHidden: []int{16}, TopHidden: []int{16},
	}
	model := dlrm.MustNewModel(cfg, rng)
	group := emt.NewGroup(p.NumTables, p.TableSize, p.EmbeddingDim, rng)
	clock := simnet.NewClock()
	machine := numasim.MustNewMachine(numasim.DefaultConfig(), clock)
	node, err := NewNode(DefaultNodeConfig(), model, &dlrm.BaseEmbeddings{Group: group}, machine, clock)
	if err != nil {
		t.Fatal(err)
	}
	return node, trace.MustNewGenerator(p, 2)
}

func TestRingBufferBasics(t *testing.T) {
	r := NewRingBuffer(3)
	if r.Len() != 0 || r.Total() != 0 {
		t.Fatal("fresh buffer must be empty")
	}
	for i := 0; i < 5; i++ {
		r.Push(trace.Sample{Time: float64(i)})
	}
	if r.Len() != 3 {
		t.Fatalf("len %d, want 3 (capacity)", r.Len())
	}
	if r.Total() != 5 {
		t.Fatalf("total %d", r.Total())
	}
	// The oldest two were overwritten: times 2, 3, 4 remain.
	for i, s := range r.buf {
		if s.Time < 2 {
			t.Fatalf("slot %d holds overwritten sample %v", i, s.Time)
		}
	}
}

// TestRingBufferSample: SampleInto returns nil without drawing from the RNG
// when the ring is empty, and otherwise fills dst with retained samples.
func TestRingBufferSample(t *testing.T) {
	r := NewRingBuffer(10)
	rng, ref := tensor.NewRNG(3), tensor.NewRNG(3)
	if r.SampleInto(rng, make([]trace.Sample, 5)) != nil {
		t.Fatal("sampling an empty buffer must return nil")
	}
	if rng.Uint64() != ref.Uint64() {
		t.Fatal("sampling an empty buffer must not draw from the RNG")
	}
	for i := 0; i < 4; i++ {
		r.Push(trace.Sample{Time: float64(i)})
	}
	dst := make([]trace.Sample, 20)
	for i := range dst {
		dst[i].Time = -1
	}
	batch := r.SampleInto(rng, dst)
	if len(batch) != 20 || &batch[0] != &dst[0] {
		t.Fatalf("SampleInto must fill and return dst, got %d samples", len(batch))
	}
	for _, s := range batch {
		if s.Time < 0 || s.Time > 3 {
			t.Fatalf("sampled ghost element %v", s.Time)
		}
	}
	if r.SampleInto(rng, nil) != nil {
		t.Fatal("an empty dst must return nil")
	}
}

func TestNodeConfigValidate(t *testing.T) {
	if err := DefaultNodeConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultNodeConfig()
	bad.GPUDenseTime = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero GPU time must fail")
	}
	bad = DefaultNodeConfig()
	bad.SLA = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative SLA must fail")
	}
	if _, err := NewNode(NodeConfig{}, nil, nil, nil, nil); err == nil {
		t.Fatal("NewNode must reject invalid config")
	}
}

// serve is one request through the node's two halves, the way core.System
// runs them: Predict, then Commit.
func serve(n *Node, s trace.Sample) (prob, latency float64) {
	return n.Predict(s), n.Commit(s)
}

func TestServeReturnsLatencyAndAdvancesClock(t *testing.T) {
	node, gen := newTestNode(t)
	before := node.Clock.Now()
	s := gen.Next()
	prob, lat := serve(node, s)
	if prob <= 0 || prob >= 1 {
		t.Fatalf("prob %v", prob)
	}
	if lat < node.Cfg.GPUDenseTime {
		t.Fatalf("latency %v below GPU floor", lat)
	}
	if node.Clock.Now() <= before {
		t.Fatal("serve must advance the clock")
	}
	if node.Served() != 1 {
		t.Fatalf("served %d", node.Served())
	}
	if node.Ring.Len() != 1 {
		t.Fatal("request must be cached in the ring buffer")
	}
}

func TestServeWarmLatencyDropsAndP99(t *testing.T) {
	node, gen := newTestNode(t)
	// Serve the same sample repeatedly: after the first, rows are cached.
	s := gen.Next()
	_, cold := serve(node, s)
	var warm float64
	for i := 0; i < 50; i++ {
		_, warm = serve(node, s)
	}
	if warm >= cold {
		t.Fatalf("warm latency %v should be below cold %v", warm, cold)
	}
	if node.P99() <= 0 {
		t.Fatal("P99 must be positive after serving")
	}
}

func TestViolationTracking(t *testing.T) {
	node, gen := newTestNode(t)
	node.Cfg.SLA = 1e-9 // everything violates
	for i := 0; i < 10; i++ {
		serve(node, gen.Next())
	}
	if node.ViolationRate() != 1 {
		t.Fatalf("violation rate %v, want 1", node.ViolationRate())
	}
}

// TestServeBatch: a batch is scored by one PredictBatch and committed one
// request at a time, as core.System.ServeBatch runs it.
func TestServeBatch(t *testing.T) {
	node, gen := newTestNode(t)
	batch := gen.Batch(20, 1)
	probs := make([]float64, len(batch))
	node.PredictBatch(batch, probs)
	for i, s := range batch {
		if probs[i] <= 0 || probs[i] >= 1 {
			t.Fatalf("prob %d = %v", i, probs[i])
		}
		if lat := node.Commit(s); lat <= 0 {
			t.Fatalf("latency %d = %v", i, lat)
		}
	}
	if node.Served() != 20 {
		t.Fatalf("served %d", node.Served())
	}
	node.PredictBatch(nil, nil) // an empty batch is a no-op
}

func TestHotRowsServedFromCache(t *testing.T) {
	node, gen := newTestNode(t)
	// Zipf skew means the hot set gets cached quickly: after a warmup the
	// inference hit ratio should be substantial (paper Fig 12 → Fig 11 link).
	for i := 0; i < 300; i++ {
		serve(node, gen.Next())
	}
	node.Machine.ResetStats()
	for i := 0; i < 300; i++ {
		serve(node, gen.Next())
	}
	if hr := node.Machine.HitRatio(numasim.Inference); hr < 0.3 {
		t.Fatalf("steady-state hit ratio %v too low for Zipf traffic", hr)
	}
}

// --- Serving fast path ---

// TestServeBatchMatchesServeLoop: scoring a batch with one PredictBatch and
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
	b.PredictBatch(batch, probs)
	for i, s := range batch {
		prob, latA := serve(a, s)
		if latB := b.Commit(s); prob != probs[i] || latA != latB {
			t.Fatalf("req %d: one at a time (%v, %v), batched (%v, %v)", i, prob, latA, probs[i], latB)
		}
	}
	if a.Served() != b.Served() || a.Clock.Now() != b.Clock.Now() ||
		a.Violations() != b.Violations() || a.P99() != b.P99() ||
		a.Ring.Total() != b.Ring.Total() {
		t.Fatalf("batch bookkeeping diverged: served %d/%d clock %v/%v",
			a.Served(), b.Served(), a.Clock.Now(), b.Clock.Now())
	}
}

// TestNodePredictZeroAlloc: the Predict half performs no heap allocation —
// the property the CI alloc gate enforces end to end.
func TestNodePredictZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	n, gen := newTestNode(t)
	s := gen.Next()
	if allocs := testing.AllocsPerRun(200, func() { n.Predict(s) }); allocs != 0 {
		t.Fatalf("Node.Predict allocates %v per run, want 0", allocs)
	}
}
