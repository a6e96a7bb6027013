package dlrm

import (
	"fmt"
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
	m := mustNewModel(cfg, rng)
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

// refLayer is one layer's state in the reference forward: an owned copy
// of its input, and its pre-activation.
type refLayer struct{ in, pre []float64 }

// refMLPForward is the per-sample matvec forward the batched pass replaced:
// pre = W·x + b by MatVecInto, then ReLU into a separate output. It returns
// the stack's output and each layer's state for refMLPBackward.
func refMLPForward(m *MLP, x []float64) ([]float64, []refLayer) {
	layers := make([]refLayer, len(m.Layers))
	out := x
	for i, l := range m.Layers {
		pre := make([]float64, l.out())
		tensor.MatVecInto(pre, l.W, out)
		for j := range pre {
			pre[j] += l.B[j]
		}
		layers[i] = refLayer{in: append([]float64(nil), out...), pre: pre}
		out = pre
		if l.ReLU {
			out = append([]float64(nil), pre...)
			tensor.ReLUInPlace(out)
		}
	}
	return out, layers
}

// refCache is the reference forward's state for one sample.
type refCache struct {
	bottom, top []refLayer
	features    [][]float64 // f_0 = bottom output, f_1.. = pooled embeddings
}

// refForward is the per-sample matvec model forward the batched pass
// replaced: the sample's logit, and the state refBackward reads.
func refForward(m *Model, src EmbeddingSource, dense []float64, sparse [][]int32) (float64, *refCache) {
	cfg := m.Cfg
	z, bottom := refMLPForward(m.Bottom, dense)
	f := make([][]float64, cfg.NumTables+1)
	f[0] = z
	for t := 0; t < cfg.NumTables; t++ {
		f[t+1] = make([]float64, cfg.EmbeddingDim)
		src.Lookup(t, sparse[t], f[t+1])
	}
	topIn := append([]float64(nil), z...)
	for i := range f {
		for j := i + 1; j < len(f); j++ {
			topIn = append(topIn, tensor.Dot(f[i], f[j]))
		}
	}
	out, top := refMLPForward(m.Top, topIn)
	return out[0], &refCache{bottom: bottom, top: top, features: f}
}

// refMLPBackward is the per-layer backward the scratch-reading one replaced
// (input gradient only when frozen): the ReLU mask from the pre-activation,
// and the input gradient as one Axpy per row of W whose output the ReLU let
// through.
func refMLPBackward(m *MLP, dOut []float64, c []refLayer, frozen bool) []float64 {
	d := dOut
	for i := len(m.Layers) - 1; i >= 0; i-- {
		l := m.Layers[i]
		dPre := append([]float64(nil), d...)
		if l.ReLU {
			tensor.ReLUMaskInto(dPre, d, c[i].pre)
		}
		if !frozen {
			l.accumulate(dPre, c[i].in)
		}
		d = make([]float64, l.in())
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
func refBackward(m *Model, dLogit float64, c *refCache, frozen bool) [][]float64 {
	dTopIn := refMLPBackward(m.Top, []float64{dLogit}, c.top, frozen)
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
		refMLPBackward(m.Bottom, dZ, c.bottom, false)
	}
	return dF[1:]
}

// sameRows reports the first coordinate in which got and want differ in any
// bit, or "".
func sameRows(got, want [][]float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, reference %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				return fmt.Sprintf("row %d coord %d: %v, reference %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	return ""
}

// The input-only backward returns the reference full backward's embedding
// gradients bit for bit and never touches a weight or bias gradient.
func TestBackwardInputMatchesBackward(t *testing.T) {
	full, src, samples := frozenFixture(21)
	frozen := full.Clone()
	untouched := poisonGrads(frozen)
	var c ForwardCache // reused across samples, like the train tick's
	for si, s := range samples {
		logit, rc := refForward(full, src, s.Dense, s.Sparse)
		if got := frozen.forward(src, s.Dense, s.Sparse, &c); got != logit {
			t.Fatalf("sample %d: forward %v, reference %v", si, got, logit)
		}
		dLogit := sigmoid(logit) - float64(s.Label)
		want := refBackward(full, dLogit, rc, false)
		if msg := sameRows(frozen.backward(dLogit, &c, true), want); msg != "" {
			t.Fatalf("sample %d: %s", si, msg)
		}
		nonzero := false
		for _, row := range want {
			for _, v := range row {
				nonzero = nonzero || v != 0
			}
		}
		if !nonzero {
			t.Fatalf("sample %d: all-zero embedding gradient — fixture proves nothing", si)
		}
		full.Bottom.zeroGrad()
		full.Top.zeroGrad()
	}
	if !untouched() {
		t.Fatal("the frozen backward wrote to a dense gradient accumulator")
	}
}

// The MLP's input-only backward from the batched pass's activations: the
// reference full backward's input gradient, through ReLU masks, with the
// accumulators untouched.
func TestMLPBackwardInputMatchesBackward(t *testing.T) {
	rng := tensor.NewRNG(4)
	a := newMLP(rng, []int{6, 9, 5, 2})
	b := a.clone()
	untouched := poisonGrads(&Model{Bottom: b, Top: &MLP{}})
	s, gs := b.newBatchScratch(1), b.newGrads()
	x := tensor.NewMatrix(1, 6)
	for trial := 0; trial < 20; trial++ {
		dOut := make([]float64, 2)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		for i := range dOut {
			dOut[i] = rng.NormFloat64()
		}
		wantOut, rc := refMLPForward(a, x.Data)
		want := refMLPBackward(a, dOut, rc, false)
		out := b.inferBatchInto(x, s).Row(0)
		got := b.backward(dOut, x.Row(0), s, gs, false, true)
		if msg := sameRows([][]float64{out, got}, [][]float64{wantOut, want}); msg != "" {
			t.Fatalf("trial %d (row 0 output, row 1 input gradient): %s", trial, msg)
		}
	}
	if !untouched() {
		t.Fatal("the input-only backward wrote to a gradient accumulator")
	}
}

// Backward and its frozen form — from the batched pass's activations, the
// input gradients through tensor.AxpyRows, the interaction gradient summed
// per feature — give the bits of the reference forward and its Axpy-per-row,
// pair-by-pair backward, embedding and dense gradients alike.
func TestBackwardMatchesAxpyWalk(t *testing.T) {
	for _, frozen := range []bool{false, true} {
		m, src, samples := frozenFixture(45)
		ref := m.Clone()
		var c ForwardCache
		for si, s := range samples {
			logit := m.forward(src, s.Dense, s.Sparse, &c)
			refLogit, rc := refForward(ref, src, s.Dense, s.Sparse)
			if logit != refLogit {
				t.Fatalf("frozen %v sample %d: logit %v, reference %v", frozen, si, logit, refLogit)
			}
			dLogit := sigmoid(logit) - float64(s.Label)
			want := refBackward(ref, dLogit, rc, frozen)
			if msg := sameRows(m.backward(dLogit, &c, frozen), want); msg != "" {
				t.Fatalf("frozen %v sample %d: %s", frozen, si, msg)
			}
		}
		if msg := denseGradDiff(m, ref); msg != "" {
			t.Fatalf("frozen %v: %s", frozen, msg)
		}
	}
}

// denseGradDiff describes the first weight or bias gradient in which m and
// ref differ in any bit, or returns "".
func denseGradDiff(m, ref *Model) string {
	layers := append(append([]*Layer(nil), m.Bottom.Layers...), m.Top.Layers...)
	refLayers := append(append([]*Layer(nil), ref.Bottom.Layers...), ref.Top.Layers...)
	for li, l := range layers {
		for i, g := range l.gradW.Data {
			if math.Float64bits(g) != math.Float64bits(refLayers[li].gradW.Data[i]) {
				return fmt.Sprintf("layer %d weight gradient %d: %v, reference %v", li, i, g, refLayers[li].gradW.Data[i])
			}
		}
		for i, g := range l.gradB {
			if math.Float64bits(g) != math.Float64bits(refLayers[li].gradB[i]) {
				return fmt.Sprintf("layer %d bias gradient %d: %v, reference %v", li, i, g, refLayers[li].gradB[i])
			}
		}
	}
	return ""
}

// TrainStepWith skips the input gradient of the bottom MLP's first layer,
// which nothing reads, and accumulates the dense gradients of the full
// backward bit for bit: over a mini-batch whose embedding steps feed back
// into later samples.
func TestTrainStepWithMatchesFullBackward(t *testing.T) {
	m, src, samples := frozenFixture(57)
	ref, refSrc, _ := frozenFixture(57)
	var c ForwardCache
	for si, s := range samples {
		loss := m.TrainStepWith(src, s.Dense, s.Sparse, s.Label, 0.05, &c)
		logit, rc := refForward(ref, refSrc, s.Dense, s.Sparse)
		for ti, g := range refBackward(ref, sigmoid(logit)-float64(s.Label), rc, false) {
			refSrc.ApplyGrad(ti, s.Sparse[ti], g, 0.05)
		}
		if want := bCELossWithLogit(logit, s.Label); loss != want {
			t.Fatalf("sample %d: loss %v, reference %v", si, loss, want)
		}
	}
	if msg := denseGradDiff(m, ref); msg != "" {
		t.Fatal(msg)
	}
	if tensor.Norm2(m.Bottom.Layers[0].gradW.Data) == 0 {
		t.Fatal("fixture left the bottom MLP's first layer without a gradient")
	}
}

// zeroingOpt is what the harness's frozen-dense optimizer used to be: it
// discards the accumulated dense gradients.
type zeroingOpt struct{}

func (zeroingOpt) Step(m *MLP, _ int) { m.zeroGrad() }

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
