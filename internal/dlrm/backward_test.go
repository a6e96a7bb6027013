package dlrm

import (
	"math"
	"testing"

	"liveupdate/internal/emt"
	"liveupdate/internal/tensor"
	"liveupdate/internal/trace"
)

// frozenFixture returns a model, an embedding source and a stream of samples
// on a small profile.
func frozenFixture(seed uint64) (*Model, *BaseEmbeddings, []trace.Sample) {
	p := trace.Profiles()["criteo"]
	p.NumTables = 3
	p.TableSize = 50
	p.NumDense = 4
	p.MultiHot = []int{1, 1, 2}
	rng := tensor.NewRNG(seed)
	cfg := smallConfig()
	m := MustNewModel(cfg, rng)
	src := &BaseEmbeddings{Group: emt.NewGroup(cfg.NumTables, p.TableSize, cfg.EmbeddingDim, rng)}
	return m, src, trace.MustNewGenerator(p, seed).Batch(64, 60)
}

// poisonGrads fills every gradient accumulator with a sentinel and returns a
// check that they still hold it.
func poisonGrads(m *Model) (untouched func() bool) {
	const sentinel = 0.125
	layers := append(append([]*Layer(nil), m.Bottom.Layers...), m.Top.Layers...)
	for _, l := range layers {
		for i := range l.gradW.Data {
			l.gradW.Data[i] = sentinel
		}
		for i := range l.gradB {
			l.gradB[i] = sentinel
		}
	}
	return func() bool {
		for _, l := range layers {
			for _, v := range l.gradW.Data {
				if v != sentinel {
					return false
				}
			}
			for _, v := range l.gradB {
				if v != sentinel {
					return false
				}
			}
		}
		return true
	}
}

// The input-only backward returns bit-identical embedding gradients to the
// full backward and never touches a weight or bias gradient.
func TestBackwardInputMatchesBackward(t *testing.T) {
	full, src, samples := frozenFixture(21)
	frozen := full.Clone()
	untouched := poisonGrads(frozen)
	// Reused across samples, like the train tick's — and the frozen side
	// declares itself, so its Forward keeps no layer inputs.
	var fc ForwardCache
	zc := ForwardCache{Frozen: true}
	for si, s := range samples {
		logit := full.Forward(src, s.Dense, s.Sparse, &fc)
		if got := frozen.Forward(src, s.Dense, s.Sparse, &zc); got != logit {
			t.Fatalf("sample %d: clone forward %v vs %v", si, got, logit)
		}
		dLogit := Sigmoid(logit) - float64(s.Label)
		want := full.Backward(dLogit, &fc)
		got := frozen.BackwardInput(dLogit, &zc)
		if len(got) != len(want) {
			t.Fatalf("sample %d: %d gradient rows vs %d", si, len(got), len(want))
		}
		nonzero := false
		for ti := range want {
			for j := range want[ti] {
				if math.Float64bits(got[ti][j]) != math.Float64bits(want[ti][j]) {
					t.Fatalf("sample %d table %d coord %d: %v vs %v", si, ti, j, got[ti][j], want[ti][j])
				}
				nonzero = nonzero || want[ti][j] != 0
			}
		}
		if !nonzero {
			t.Fatalf("sample %d: all-zero embedding gradient — fixture proves nothing", si)
		}
		full.Bottom.ZeroGrad()
		full.Top.ZeroGrad()
	}
	if !untouched() {
		t.Fatal("BackwardInput wrote to a dense gradient accumulator")
	}
	for _, lc := range append(zc.bottom.layers, zc.top.layers...) {
		if lc.Input != nil {
			t.Fatal("a frozen cache's Forward copied a layer input")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Backward on a frozen cache must panic: it has no layer inputs to take weight gradients from")
		}
	}()
	frozen.Backward(0.5, &zc)
}

// MLP.BackwardInput alone: same input gradient as MLP.Backward, including
// through ReLU masks, accumulators untouched.
func TestMLPBackwardInputMatchesBackward(t *testing.T) {
	rng := tensor.NewRNG(4)
	a := NewMLP(rng, []int{6, 9, 5, 2})
	b := a.Clone()
	untouched := poisonGrads(&Model{Bottom: b, Top: &MLP{}})
	var ca, cb MLPCache
	for trial := 0; trial < 20; trial++ {
		x := make([]float64, 6)
		dOut := make([]float64, 2)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range dOut {
			dOut[i] = rng.NormFloat64()
		}
		a.Forward(x, &ca)
		b.Forward(x, &cb)
		want := a.Backward(dOut, &ca)
		got := b.BackwardInput(dOut, &cb)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d input %d: %v vs %v", trial, i, got[i], want[i])
			}
		}
	}
	if !untouched() {
		t.Fatal("MLP.BackwardInput wrote to a gradient accumulator")
	}
}

// refMLPBackward is MLP.Backward (BackwardInput when frozen) with the input
// gradient taken the way it was before tensor.AxpyRows: one Axpy per row of
// W whose output the ReLU let through.
func refMLPBackward(m *MLP, dOut []float64, c *MLPCache, frozen bool) []float64 {
	d := dOut
	for i := len(m.Layers) - 1; i >= 0; i-- {
		l, lc := m.Layers[i], &c.layers[i]
		dPre := append([]float64(nil), l.preGrad(d, lc)...)
		if !frozen {
			l.accumulate(dPre, lc.Input)
		}
		d = make([]float64, l.In())
		for o, dp := range dPre {
			if dp != 0 {
				tensor.Axpy(dp, l.W.Row(o), d)
			}
		}
	}
	return d
}

// refBackward is Model.backward with the interaction gradient as the pair
// walk it replaced: two Axpys per interaction, in pair order.
func refBackward(m *Model, dLogit float64, c *ForwardCache, frozen bool) [][]float64 {
	dTopIn := refMLPBackward(m.Top, []float64{dLogit}, &c.top, frozen)
	dInter := dTopIn[m.Cfg.EmbeddingDim:]
	f := c.features
	dF := make([][]float64, len(f))
	for i := range dF {
		dF[i] = make([]float64, m.Cfg.EmbeddingDim)
	}
	k := 0
	for i := range f {
		for j := i + 1; j < len(f); j++ {
			g := dInter[k]
			k++
			if g == 0 {
				continue
			}
			tensor.Axpy(g, f[j], dF[i])
			tensor.Axpy(g, f[i], dF[j])
		}
	}
	if !frozen {
		dZ := make([]float64, m.Cfg.EmbeddingDim)
		for i := range dZ {
			dZ[i] = dTopIn[i] + dF[0][i]
		}
		refMLPBackward(m.Bottom, dZ, &c.bottom, false)
	}
	return dF[1:]
}

// Backward and BackwardInput — the input gradients through tensor.AxpyRows,
// the interaction gradient summed per feature — give the bits of the
// Axpy-per-row, pair-by-pair walk, embedding and dense gradients alike.
func TestBackwardMatchesAxpyWalk(t *testing.T) {
	for _, frozen := range []bool{false, true} {
		m, src, samples := frozenFixture(45)
		ref := m.Clone()
		c, rc := ForwardCache{Frozen: frozen}, ForwardCache{Frozen: frozen}
		for si, s := range samples {
			logit := m.Forward(src, s.Dense, s.Sparse, &c)
			ref.Forward(src, s.Dense, s.Sparse, &rc)
			dLogit := Sigmoid(logit) - float64(s.Label)
			want := refBackward(ref, dLogit, &rc, frozen)
			got := m.backward(dLogit, &c, frozen)
			for ti := range want {
				for j := range want[ti] {
					if math.Float64bits(got[ti][j]) != math.Float64bits(want[ti][j]) {
						t.Fatalf("frozen %v sample %d table %d coord %d: %v, pair walk %v", frozen, si, ti, j, got[ti][j], want[ti][j])
					}
				}
			}
		}
		layers := append(append([]*Layer(nil), m.Bottom.Layers...), m.Top.Layers...)
		refLayers := append(append([]*Layer(nil), ref.Bottom.Layers...), ref.Top.Layers...)
		for li, l := range layers {
			for i, g := range l.gradW.Data {
				if math.Float64bits(g) != math.Float64bits(refLayers[li].gradW.Data[i]) {
					t.Fatalf("frozen %v layer %d weight gradient %d: %v, pair walk %v", frozen, li, i, g, refLayers[li].gradW.Data[i])
				}
			}
			for i, g := range l.gradB {
				if math.Float64bits(g) != math.Float64bits(refLayers[li].gradB[i]) {
					t.Fatalf("frozen %v layer %d bias gradient %d: %v, pair walk %v", frozen, li, i, g, refLayers[li].gradB[i])
				}
			}
		}
	}
}

// zeroingOpt is what the harness's frozen-dense optimizer used to be: it
// discards the accumulated dense gradients.
type zeroingOpt struct{}

func (zeroingOpt) Step(m *MLP, _ int) { m.ZeroGrad() }

// A Trainer without an optimizer trains embeddings exactly as one that
// computes dense gradients and throws them away, and leaves dense weights put.
func TestTrainerNilOptFreezesDense(t *testing.T) {
	ma, sa, samples := frozenFixture(33)
	mb, sb, _ := frozenFixture(33)
	before := ma.Clone()
	la := (&Trainer{Model: ma, Emb: sa, EmbLR: 0.05}).TrainEpochs(samples, 16, 2)
	lb := (&Trainer{Model: mb, Emb: sb, Opt: zeroingOpt{}, EmbLR: 0.05}).TrainEpochs(samples, 16, 2)
	if la != lb {
		t.Fatalf("loss %v vs %v", la, lb)
	}
	for ti, tab := range sa.Group.Tables {
		for id := int32(0); int(id) < tab.Rows(); id++ {
			ra, rb := tab.PeekRow(id), sb.Group.Tables[ti].PeekRow(id)
			for j := range ra {
				if math.Float64bits(ra[j]) != math.Float64bits(rb[j]) {
					t.Fatalf("table %d row %d coord %d: %v vs %v", ti, id, j, ra[j], rb[j])
				}
			}
		}
	}
	for li, l := range ma.Top.Layers {
		for i, w := range l.W.Data {
			if w != before.Top.Layers[li].W.Data[i] {
				t.Fatalf("top layer %d weight %d moved under a nil optimizer", li, i)
			}
		}
	}
}
