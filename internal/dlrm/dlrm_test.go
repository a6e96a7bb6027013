package dlrm

import (
	"math"
	"testing"
	"testing/quick"

	"liveupdate/internal/emt"
	"liveupdate/internal/tensor"
	"liveupdate/internal/trace"
)

func smallConfig() Config {
	return Config{
		NumTables:    3,
		EmbeddingDim: 8,
		NumDense:     4,
		BottomHidden: []int{16},
		TopHidden:    []int{16},
	}
}

func newSetup(seed uint64) (*Model, *BaseEmbeddings) {
	rng := tensor.NewRNG(seed)
	cfg := smallConfig()
	m := MustNewModel(cfg, rng)
	g := emt.NewGroup(cfg.NumTables, 50, cfg.EmbeddingDim, rng)
	return m, &BaseEmbeddings{Group: g}
}

func TestLayerForwardLinear(t *testing.T) {
	l := &Layer{
		W:    tensor.NewMatrixFrom(2, 2, []float64{1, 0, 0, 1}),
		B:    []float64{1, -1},
		ReLU: false,
	}
	out := l.Forward([]float64{3, 4}, nil)
	if out[0] != 4 || out[1] != 3 {
		t.Fatalf("out = %v", out)
	}
}

func TestLayerReLU(t *testing.T) {
	l := &Layer{
		W:    tensor.NewMatrixFrom(2, 1, []float64{1, -1}),
		B:    []float64{0, 0},
		ReLU: true,
	}
	out := l.Forward([]float64{2}, nil)
	if out[0] != 2 || out[1] != 0 {
		t.Fatalf("relu out = %v", out)
	}
}

func TestMLPShapes(t *testing.T) {
	rng := tensor.NewRNG(1)
	m := NewMLP(rng, []int{4, 8, 2})
	out := m.Forward([]float64{1, 2, 3, 4}, nil)
	if len(out) != 2 {
		t.Fatalf("out len %d", len(out))
	}
	if m.ParamCount() != 4*8+8+8*2+2 {
		t.Fatalf("param count %d", m.ParamCount())
	}
}

// Finite-difference check of the full model gradient w.r.t. a bottom-layer
// weight and an embedding row. This validates the entire backward path:
// top MLP → interaction → bottom MLP / embeddings.
func TestGradientFiniteDifference(t *testing.T) {
	m, src := newSetup(7)
	rng := tensor.NewRNG(99)
	dense := []float64{0.5, -0.2, 0.8, 0.1}
	sparse := [][]int32{{3}, {7, 9}, {11}}
	label := 1

	lossAt := func() float64 {
		return BCELossWithLogit(m.Forward(src, dense, sparse, nil), label)
	}

	// Analytic gradient.
	var cache ForwardCache
	logit := m.Forward(src, dense, sparse, &cache)
	dLogit := Sigmoid(logit) - float64(label)
	m.Bottom.ZeroGrad()
	m.Top.ZeroGrad()
	dEmb := m.Backward(dLogit, &cache)

	const h = 1e-6

	// Check several random dense weights across both MLPs.
	check := func(name string, w *[]float64, grad []float64, idx int) {
		orig := (*w)[idx]
		(*w)[idx] = orig + h
		up := lossAt()
		(*w)[idx] = orig - h
		down := lossAt()
		(*w)[idx] = orig
		numeric := (up - down) / (2 * h)
		if math.Abs(numeric-grad[idx]) > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("%s[%d]: numeric %v vs analytic %v", name, idx, numeric, grad[idx])
		}
	}
	for trial := 0; trial < 5; trial++ {
		bl := m.Bottom.Layers[0]
		idx := rng.Intn(len(bl.W.Data))
		check("bottomW", &bl.W.Data, bl.gradW.Data, idx)
		tl := m.Top.Layers[len(m.Top.Layers)-1]
		idx = rng.Intn(len(tl.W.Data))
		check("topW", &tl.W.Data, tl.gradW.Data, idx)
	}

	// Check the pooled-embedding gradient for table 1 (multi-hot) by
	// perturbing one coordinate of one contributing row: the pooled Jacobian
	// splits the gradient by 1/len(ids).
	tab := src.Group.Tables[1]
	row := tab.PeekRow(7)
	for coord := 0; coord < 3; coord++ {
		orig := row[coord]
		row[coord] = orig + h
		up := lossAt()
		row[coord] = orig - h
		down := lossAt()
		row[coord] = orig
		numeric := (up - down) / (2 * h)
		analytic := dEmb[1][coord] / 2 // two ids pooled
		if math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("emb grad coord %d: numeric %v vs analytic %v", coord, numeric, analytic)
		}
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	p := trace.Profiles()["criteo"]
	p.NumTables = 3
	p.TableSize = 50
	p.NumDense = 4
	p.MultiHot = []int{1, 1, 2}
	gen := trace.MustNewGenerator(p, 5)
	samples := gen.Batch(800, 60)

	rng := tensor.NewRNG(11)
	cfg := smallConfig()
	m := MustNewModel(cfg, rng)
	src := &BaseEmbeddings{Group: emt.NewGroup(cfg.NumTables, p.TableSize, cfg.EmbeddingDim, rng)}
	tr := &Trainer{Model: m, Emb: src, Opt: SGD{LR: 0.05}, EmbLR: 0.05}

	before := EvaluateLogLoss(m, src, samples)
	tr.TrainEpochs(samples, 32, 3)
	after := EvaluateLogLoss(m, src, samples)
	if after >= before {
		t.Fatalf("training did not reduce loss: %v -> %v", before, after)
	}
	auc := EvaluateAUC(m, src, samples)
	if auc <= 0.52 {
		t.Fatalf("training AUC %v should beat random", auc)
	}
}

func TestAdagradReducesLoss(t *testing.T) {
	p := trace.Profiles()["criteo"]
	p.NumTables = 3
	p.TableSize = 50
	p.NumDense = 4
	p.MultiHot = []int{1, 1, 1}
	gen := trace.MustNewGenerator(p, 6)
	samples := gen.Batch(400, 60)

	rng := tensor.NewRNG(12)
	cfg := smallConfig()
	m := MustNewModel(cfg, rng)
	src := &BaseEmbeddings{Group: emt.NewGroup(cfg.NumTables, p.TableSize, cfg.EmbeddingDim, rng)}
	tr := &Trainer{Model: m, Emb: src, Opt: Adagrad{LR: 0.05}, EmbLR: 0.05}
	before := EvaluateLogLoss(m, src, samples)
	tr.TrainEpochs(samples, 32, 3)
	after := EvaluateLogLoss(m, src, samples)
	if after >= before {
		t.Fatalf("adagrad did not reduce loss: %v -> %v", before, after)
	}
}

func TestEmbeddingUpdatesMarkDirty(t *testing.T) {
	m, src := newSetup(3)
	dense := []float64{0, 0, 0, 0}
	sparse := [][]int32{{1}, {2}, {3}}
	m.TrainStepWith(src, dense, sparse, 1, 0.1, &ForwardCache{})
	for ti, tab := range src.Group.Tables {
		if tab.DirtyCount() != 1 {
			t.Fatalf("table %d dirty %d, want 1", ti, tab.DirtyCount())
		}
	}
}

func TestApplyGradEmptyIDs(t *testing.T) {
	_, src := newSetup(4)
	// Must not panic or update anything.
	src.ApplyGrad(0, nil, make([]float64, 8), 0.1)
	if src.Group.Tables[0].DirtyCount() != 0 {
		t.Fatal("empty ApplyGrad must be a no-op")
	}
}

func TestModelCloneIndependence(t *testing.T) {
	m, src := newSetup(8)
	c := m.Clone()
	dense := []float64{1, 1, 1, 1}
	sparse := [][]int32{{0}, {0}, {0}}
	before := c.Forward(src, dense, sparse, nil)
	// Train original only.
	for i := 0; i < 10; i++ {
		m.TrainStepWith(src, dense, sparse, 1, 0, &ForwardCache{}) // embLR=0: only dense params move
		SGD{LR: 0.1}.Step(m.Bottom, 1)
		SGD{LR: 0.1}.Step(m.Top, 1)
	}
	after := c.Forward(src, dense, sparse, nil)
	if before != after {
		t.Fatal("clone weights changed when original trained")
	}
	c.CopyWeightsFrom(m)
	if c.Forward(src, dense, sparse, nil) != m.Forward(src, dense, sparse, nil) {
		t.Fatal("CopyWeightsFrom must make outputs identical")
	}
}

func TestConfigValidate(t *testing.T) {
	good := smallConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, bad := range []Config{
		{NumTables: 0, EmbeddingDim: 8, NumDense: 4},
		{NumTables: 3, EmbeddingDim: 0, NumDense: 4},
		{NumTables: 3, EmbeddingDim: 8, NumDense: 0},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
	if _, err := NewModel(Config{}, tensor.NewRNG(1)); err == nil {
		t.Fatal("NewModel must reject invalid config")
	}
}

func TestInteractionCount(t *testing.T) {
	c := smallConfig() // 3 tables + bottom = 4 features → 6 pairs
	if c.InteractionCount() != 6 {
		t.Fatalf("interactions %d, want 6", c.InteractionCount())
	}
}

func TestBCELossStability(t *testing.T) {
	// Extreme logits must not produce NaN/Inf.
	for _, logit := range []float64{-500, -10, 0, 10, 500} {
		for _, label := range []int{0, 1} {
			l := BCELossWithLogit(logit, label)
			if math.IsNaN(l) || math.IsInf(l, 0) {
				t.Fatalf("loss(%v,%d) = %v", logit, label, l)
			}
			if l < 0 {
				t.Fatalf("loss must be non-negative: %v", l)
			}
		}
	}
	// Known value: logit 0 → ln 2 either label.
	if math.Abs(BCELossWithLogit(0, 1)-math.Ln2) > 1e-12 {
		t.Fatal("loss(0,1) != ln2")
	}
}

func TestSigmoid(t *testing.T) {
	if Sigmoid(0) != 0.5 {
		t.Fatal("sigmoid(0) != 0.5")
	}
	if s := Sigmoid(100); s <= 0.999 {
		t.Fatalf("sigmoid(100) = %v", s)
	}
	if s := Sigmoid(-100); s >= 0.001 {
		t.Fatalf("sigmoid(-100) = %v", s)
	}
}

// Property: Forward is deterministic and Predict stays in (0, 1).
func TestPropertyPredictRange(t *testing.T) {
	m, src := newSetup(21)
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		dense := make([]float64, 4)
		for i := range dense {
			dense[i] = rng.NormFloat64()
		}
		sparse := [][]int32{
			{int32(rng.Intn(50))},
			{int32(rng.Intn(50))},
			{int32(rng.Intn(50))},
		}
		p1 := m.Predict(src, dense, sparse)
		p2 := m.Predict(src, dense, sparse)
		return p1 == p2 && p1 > 0 && p1 < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigForProfile(t *testing.T) {
	p := trace.Profiles()["criteo"]
	cfg := ConfigForProfile(p)
	if cfg.NumTables != p.NumTables || cfg.EmbeddingDim != p.EmbeddingDim || cfg.NumDense != p.NumDense {
		t.Fatal("ConfigForProfile mismatch")
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

// --- Serving fast path (zero-allocation scratch forward) ---

// TestPredictWithMatchesForward: the scratch-based inference path must score
// bit-identically to the allocating Forward path, for both embedding sources.
func TestPredictWithMatchesForward(t *testing.T) {
	m, b := newSetup(5)
	sc := m.NewScratch()
	sparse := [][]int32{{1, 7}, {3}, {9, 11, 2}}
	dense := []float64{0.5, -1, 2, 0.25}
	for i := 0; i < 50; i++ {
		dense[0] = float64(i) * 0.1
		sparse[0][0] = int32(i % 50)
		want := Sigmoid(m.Forward(b, dense, sparse, nil))
		if got := m.PredictWith(b, dense, sparse, sc); got != want {
			t.Fatalf("iter %d: PredictWith = %v, Forward = %v", i, got, want)
		}
		if got := m.Predict(b, dense, sparse); got != want {
			t.Fatalf("iter %d: Predict = %v, Forward = %v", i, got, want)
		}
	}
}

// TestPredictZeroAlloc asserts the acceptance criterion directly: the Predict
// fast path (pooled scratch) and PredictWith (caller scratch) perform zero
// heap allocations per call.
func TestPredictZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	m, b := newSetup(6)
	sc := m.NewScratch()
	sparse := [][]int32{{1, 7}, {3}, {9, 11, 2}}
	dense := []float64{0.5, -1, 2, 0.25}
	if n := testing.AllocsPerRun(200, func() { m.PredictWith(b, dense, sparse, sc) }); n != 0 {
		t.Fatalf("PredictWith allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { m.Predict(b, dense, sparse) }); n != 0 {
		t.Fatalf("Predict allocates %v per run, want 0", n)
	}
}

func TestPredictBatch(t *testing.T) {
	m, b := newSetup(7)
	const n = 16
	dense := make([][]float64, n)
	sparse := make([][][]int32, n)
	for i := range dense {
		dense[i] = []float64{float64(i), 1, -1, 0.5}
		sparse[i] = [][]int32{{int32(i)}, {int32(2 * i)}, {int32(i), int32(i + 1)}}
	}
	out := make([]float64, n)
	m.PredictBatch(b, dense, sparse, out, nil)
	for i := range out {
		if want := m.Predict(b, dense[i], sparse[i]); out[i] != want {
			t.Fatalf("batch[%d] = %v, want %v", i, out[i], want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	m.PredictBatch(b, dense[:2], sparse, out, nil)
}

// TestForwardCacheInputNotAliased is the batched-reuse regression test: a
// caller may overwrite its input buffer after Forward (e.g. a serving loop
// reusing one dense scratch across a batch) and Backward must still see the
// original inputs. Gradients are compared against a run whose buffers were
// never touched.
func TestForwardCacheInputNotAliased(t *testing.T) {
	mA, bA := newSetup(8)
	mB, _ := newSetup(8) // identical weights via identical seed
	bB := &BaseEmbeddings{Group: bA.Group}
	sparse := [][]int32{{1}, {2}, {3}}
	denseRef := []float64{1, -2, 3, -4}

	// Reference: pristine buffers end to end.
	var cacheA ForwardCache
	logitA := mA.Forward(bA, denseRef, sparse, &cacheA)
	dEmbA := mA.Backward(Sigmoid(logitA)-1, &cacheA)

	// Same forward, but the caller's dense buffer is clobbered before
	// Backward — as a buffer-reusing batch loop would do.
	denseLive := append([]float64(nil), denseRef...)
	var cacheB ForwardCache
	logitB := mB.Forward(bB, denseLive, sparse, &cacheB)
	for i := range denseLive {
		denseLive[i] = 999
	}
	dEmbB := mB.Backward(Sigmoid(logitB)-1, &cacheB)

	if logitA != logitB {
		t.Fatalf("logits differ: %v vs %v", logitA, logitB)
	}
	for ti := range dEmbA {
		for d := range dEmbA[ti] {
			if dEmbA[ti][d] != dEmbB[ti][d] {
				t.Fatalf("table %d dim %d: embedding grad differs after input clobber: %v vs %v",
					ti, d, dEmbA[ti][d], dEmbB[ti][d])
			}
		}
	}
	// Dense-layer gradients must match too: Backward reads cache.Input.
	for li := range mA.Bottom.Layers {
		ga, gb := mA.Bottom.Layers[li].gradW.Data, mB.Bottom.Layers[li].gradW.Data
		for i := range ga {
			if ga[i] != gb[i] {
				t.Fatalf("bottom layer %d gradW[%d] differs after input clobber", li, i)
			}
		}
	}
}

// TestBaseApplyGradScratchReuse: the reused delta scratch must produce the
// same table updates as the historical fresh-slice implementation, across
// gradient widths.
func TestBaseApplyGradScratchReuse(t *testing.T) {
	_, b := newSetup(9)
	ref := b.Group.Clone()
	grad := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	b.ApplyGrad(1, []int32{4, 5}, grad, 0.1)
	// Reference computation with a fresh slice.
	delta := make([]float64, len(grad))
	for i, g := range grad {
		delta[i] = -0.1 / 2 * g
	}
	for _, id := range []int32{4, 5} {
		ref.Tables[1].ApplyRowDelta(id, delta)
	}
	for _, id := range []int32{4, 5} {
		got := b.Group.Tables[1].PeekRow(id)
		want := ref.Tables[1].PeekRow(id)
		for d := range got {
			if got[d] != want[d] {
				t.Fatalf("row %d dim %d: %v != %v", id, d, got[d], want[d])
			}
		}
	}
	// Back-to-back calls reuse the same buffer without cross-talk.
	if !raceEnabled {
		if n := testing.AllocsPerRun(50, func() { b.ApplyGrad(0, []int32{1}, grad, 0.05) }); n != 0 {
			t.Fatalf("ApplyGrad allocates %v per run after warmup, want 0", n)
		}
	}
}
