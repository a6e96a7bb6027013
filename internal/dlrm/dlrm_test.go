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

func mustNewModel(cfg Config, rng *tensor.RNG) *Model {
	m, err := NewModel(cfg, rng)
	if err != nil {
		panic(err)
	}
	return m
}

func newSetup(seed uint64) (*Model, *BaseEmbeddings) {
	rng := tensor.NewRNG(seed)
	cfg := smallConfig()
	m := mustNewModel(cfg, rng)
	g := emt.NewGroup(cfg.NumTables, 50, cfg.EmbeddingDim, rng)
	return m, &BaseEmbeddings{Group: g}
}

// forwardOne runs one input row through the stack's batched pass.
func forwardOne(m *MLP, x ...float64) []float64 {
	return m.inferBatchInto(&tensor.Matrix{Rows: 1, Cols: len(x), Data: x}, m.newBatchScratch(1)).Row(0)
}

func TestLayerForwardLinear(t *testing.T) {
	l := layerOf(&tensor.Matrix{Rows: 2, Cols: 2, Data: []float64{1, 0, 0, 1}}, []float64{1, -1}, false)
	out := forwardOne(&MLP{Layers: []*Layer{l}}, 3, 4)
	if out[0] != 4 || out[1] != 3 {
		t.Fatalf("out = %v", out)
	}
}

func TestLayerReLU(t *testing.T) {
	l := layerOf(&tensor.Matrix{Rows: 2, Cols: 1, Data: []float64{1, -1}}, []float64{0, 0}, true)
	out := forwardOne(&MLP{Layers: []*Layer{l}}, 2)
	if out[0] != 2 || out[1] != 0 {
		t.Fatalf("relu out = %v", out)
	}
}

func TestMLPShapes(t *testing.T) {
	rng := tensor.NewRNG(1)
	m := newMLP(rng, []int{4, 8, 2})
	out := forwardOne(m, 1, 2, 3, 4)
	if len(out) != 2 {
		t.Fatalf("out len %d", len(out))
	}
	if m.paramCount() != 4*8+8+8*2+2 {
		t.Fatalf("param count %d", m.paramCount())
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
		return bCELossWithLogit(m.forward(src, dense, sparse, &ForwardCache{}), label)
	}

	// Analytic gradient.
	var cache ForwardCache
	logit := m.forward(src, dense, sparse, &cache)
	dLogit := sigmoid(logit) - float64(label)
	m.Bottom.zeroGrad()
	m.Top.zeroGrad()
	dEmb := m.backward(dLogit, &cache, false)

	const h = 1e-6

	// Check several random dense weights across both MLPs. Each write to W
	// repacks the layer, as every weight write in the package does.
	check := func(name string, l *Layer, idx int) {
		w := l.W.Data
		orig := w[idx]
		w[idx] = orig + h
		l.repack()
		up := lossAt()
		w[idx] = orig - h
		l.repack()
		down := lossAt()
		w[idx] = orig
		l.repack()
		numeric := (up - down) / (2 * h)
		if grad := l.gradW.Data[idx]; math.Abs(numeric-grad) > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("%s[%d]: numeric %v vs analytic %v", name, idx, numeric, grad)
		}
	}
	for trial := 0; trial < 5; trial++ {
		bl := m.Bottom.Layers[0]
		check("bottomW", bl, rng.Intn(len(bl.W.Data)))
		tl := m.Top.Layers[len(m.Top.Layers)-1]
		check("topW", tl, rng.Intn(len(tl.W.Data)))
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

// meanLoss is the samples' mean BCE under the model.
func meanLoss(m *Model, src EmbeddingSource, samples []trace.Sample) float64 {
	var cache ForwardCache
	sum := 0.0
	for _, s := range samples {
		sum += bCELossWithLogit(m.forward(src, s.Dense, s.Sparse, &cache), s.Label)
	}
	return sum / float64(len(samples))
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
	m := mustNewModel(cfg, rng)
	src := &BaseEmbeddings{Group: emt.NewGroup(cfg.NumTables, p.TableSize, cfg.EmbeddingDim, rng)}
	tr := &Trainer{Model: m, Emb: src, Opt: SGD{LR: 0.05}, EmbLR: 0.05}

	before := meanLoss(m, src, samples)
	tr.TrainEpochs(samples, 32, 3)
	after := meanLoss(m, src, samples)
	if after >= before {
		t.Fatalf("training did not reduce loss: %v -> %v", before, after)
	}
	auc := EvaluateAUC(m, src, samples)
	if auc <= 0.52 {
		t.Fatalf("training AUC %v should beat random", auc)
	}
}

func TestEmbeddingUpdatesMarkDirty(t *testing.T) {
	m, src := newSetup(3)
	dense := []float64{0, 0, 0, 0}
	sparse := [][]int32{{1}, {2}, {3}}
	m.TrainStepWith(src, dense, sparse, 1, 0.1, &ForwardCache{})
	for ti, tab := range src.Group.Tables {
		one := &emt.Group{Tables: []*emt.Table{tab}}
		if got := one.DirtyRatio() * float64(tab.Rows()); got != 1 {
			t.Fatalf("table %d dirty %v rows, want 1", ti, got)
		}
	}
}

func TestApplyGradEmptyIDs(t *testing.T) {
	_, src := newSetup(4)
	// Must not panic or update anything.
	src.ApplyGrad(0, nil, make([]float64, 8), 0.1)
	if src.Group.DirtyRatio() != 0 {
		t.Fatal("empty ApplyGrad must be a no-op")
	}
}

func TestModelCloneIndependence(t *testing.T) {
	m, src := newSetup(8)
	c := m.Clone()
	dense := []float64{1, 1, 1, 1}
	sparse := [][]int32{{0}, {0}, {0}}
	before := c.Predict(src, dense, sparse)
	// Train original only.
	tr := &Trainer{Model: m, Emb: src, Opt: SGD{LR: 0.1}} // EmbLR 0: only dense params move
	batch := []trace.Sample{{Dense: dense, Sparse: sparse, Label: 1}}
	for i := 0; i < 10; i++ {
		tr.TrainBatch(batch)
	}
	after := c.Predict(src, dense, sparse)
	if before != after {
		t.Fatal("clone weights changed when original trained")
	}
	c.CopyWeightsFrom(m)
	if c.Predict(src, dense, sparse) != m.Predict(src, dense, sparse) {
		t.Fatal("CopyWeightsFrom must make outputs identical")
	}
}

// checkPacked fails unless every layer's wt is, bit for bit, a fresh
// transpose of its W.
func checkPacked(t *testing.T, what string, mlps ...*MLP) {
	t.Helper()
	for mi, m := range mlps {
		for li, l := range m.Layers {
			if l.wt.Rows != l.W.Cols || l.wt.Cols != l.W.Rows {
				t.Fatalf("%s: mlp %d layer %d: wt is %dx%d for W %dx%d", what, mi, li,
					l.wt.Rows, l.wt.Cols, l.W.Rows, l.W.Cols)
			}
			for o := 0; o < l.W.Rows; o++ {
				for i, w := range l.W.Row(o) {
					if got := l.wt.Data[i*l.W.Rows+o]; math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("%s: mlp %d layer %d: wt[%d][%d] = %v, W[%d][%d] = %v",
							what, mi, li, i, o, got, o, i, w)
					}
				}
			}
		}
	}
}

// TestPackedTransposeCoherent: every write to the dense weights leaves each
// layer's packed transpose equal to a fresh one — a Trainer step with an
// optimizer, CopyWeightsFrom, Clone and the f16 snapshot SetQuantization
// publishes. (core.System.FullSync is CopyWeightsFrom; core's
// TestFullSyncInstallsFreshState checks it serves the installed model.)
func TestPackedTransposeCoherent(t *testing.T) {
	m, src, samples := frozenFixture(12)
	checkPacked(t, "NewModel", m.Bottom, m.Top)
	tr := &Trainer{Model: m, Emb: src, Opt: SGD{LR: 0.1}, EmbLR: 0.05}
	tr.TrainBatch(samples[:8])
	checkPacked(t, "Trainer step", m.Bottom, m.Top)

	other, _ := newSetup(13)
	other.CopyWeightsFrom(m)
	checkPacked(t, "CopyWeightsFrom", other.Bottom, other.Top)
	c := m.Clone()
	checkPacked(t, "Clone", c.Bottom, c.Top)

	if err := m.SetQuantization(QuantF16); err != nil {
		t.Fatal(err)
	}
	bottom, top := m.inferencers()
	checkPacked(t, "SetQuantization(f16)", bottom.(*MLP), top.(*MLP))
	tr.TrainBatch(samples[8:16])
	m.CopyWeightsFrom(other) // republishes the f16 snapshot from fresh weights
	bottom, top = m.inferencers()
	checkPacked(t, "CopyWeightsFrom(f16)", m.Bottom, m.Top, bottom.(*MLP), top.(*MLP))
}

func TestConfigValidate(t *testing.T) {
	good := smallConfig()
	if err := good.validate(); err != nil {
		t.Fatal(err)
	}
	for i, bad := range []Config{
		{NumTables: 0, EmbeddingDim: 8, NumDense: 4},
		{NumTables: 3, EmbeddingDim: 0, NumDense: 4},
		{NumTables: 3, EmbeddingDim: 8, NumDense: 0},
	} {
		if err := bad.validate(); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
	if _, err := NewModel(Config{}, tensor.NewRNG(1)); err == nil {
		t.Fatal("NewModel must reject invalid config")
	}
}

func TestInteractionCount(t *testing.T) {
	c := smallConfig() // 3 tables + bottom = 4 features → 6 pairs
	if c.interactionCount() != 6 {
		t.Fatalf("interactions %d, want 6", c.interactionCount())
	}
}

func TestBCELossStability(t *testing.T) {
	// Extreme logits must not produce NaN/Inf.
	for _, logit := range []float64{-500, -10, 0, 10, 500} {
		for _, label := range []int{0, 1} {
			l := bCELossWithLogit(logit, label)
			if math.IsNaN(l) || math.IsInf(l, 0) {
				t.Fatalf("loss(%v,%d) = %v", logit, label, l)
			}
			if l < 0 {
				t.Fatalf("loss must be non-negative: %v", l)
			}
		}
	}
	// Known value: logit 0 → ln 2 either label.
	if math.Abs(bCELossWithLogit(0, 1)-math.Ln2) > 1e-12 {
		t.Fatal("loss(0,1) != ln2")
	}
}

func TestSigmoid(t *testing.T) {
	if sigmoid(0) != 0.5 {
		t.Fatal("sigmoid(0) != 0.5")
	}
	if s := sigmoid(100); s <= 0.999 {
		t.Fatalf("sigmoid(100) = %v", s)
	}
	if s := sigmoid(-100); s >= 0.001 {
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
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
}

// TestForwardCacheInputNotAliased is the batched-reuse regression test: a
// caller may overwrite its input buffer between the forward and Backward
// (e.g. a serving loop reusing one dense scratch across a batch), because
// the forward packs its inputs into the cache's scratch. Logit, embedding
// and dense gradients must be the reference forward and backward's on
// buffers that were never touched.
func TestForwardCacheInputNotAliased(t *testing.T) {
	m, src := newSetup(8)
	ref, _ := newSetup(8) // identical weights via identical seed
	sparse := [][]int32{{1}, {2}, {3}}
	denseRef := []float64{1, -2, 3, -4}

	logitRef, rc := refForward(ref, src, denseRef, sparse)
	dEmbRef := refBackward(ref, sigmoid(logitRef)-1, rc, false)

	denseLive := append([]float64(nil), denseRef...)
	var cache ForwardCache
	logit := m.forward(src, denseLive, sparse, &cache)
	for i := range denseLive {
		denseLive[i] = 999
	}
	dEmb := m.backward(sigmoid(logit)-1, &cache, false)

	if logit != logitRef {
		t.Fatalf("logits differ: %v vs %v", logit, logitRef)
	}
	if msg := sameRows(dEmb, dEmbRef); msg != "" {
		t.Fatalf("embedding gradient after input clobber: %s", msg)
	}
	if msg := denseGradDiff(m, ref); msg != "" {
		t.Fatalf("dense gradient after input clobber: %s", msg)
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
		ref.Tables[1].ScatterAdd([]int32{id}, delta)
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
