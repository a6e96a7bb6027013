package update

import (
	"fmt"
	"sort"
	"sync"

	"liveupdate/internal/dlrm"
	"liveupdate/internal/emt"
	"liveupdate/internal/lora"
	"liveupdate/internal/tensor"
	"liveupdate/internal/trace"
)

// HarnessConfig configures the laptop-scale accuracy comparison (the real
// training/serving loop behind Table III and Figs 3b/15).
type HarnessConfig struct {
	Profile trace.Profile
	Seed    uint64

	Kind       Kind
	QuickAlpha float64 // QuickUpdate sampling rate (e.g. 0.05)

	UpdateEvery      int // windows between strategy syncs (2 → 10 min)
	FullSyncEvery    int // windows between full syncs (12 → hourly); 0 = never
	SamplesPerWindow int

	// FixedRank controls LiveUpdate variants. Rank 0 = dynamic (paper
	// default, lora's variance threshold α); a positive FixedRank freezes the
	// adapter at that rank.
	FixedRank int
}

const (
	// windowSec is the evaluation/training step (paper: 5-minute windows).
	windowSec = 300

	// learningRate is both of the training cluster's rates, dense SGD and
	// embedding rows; batch is its minibatch size.
	learningRate = 0.05
	batch        = 64

	// liveLRScale scales learningRate into the co-located LoRA trainer's
	// rate. LoRA's parameterized update moves ∆W slower than direct SGD near
	// the B=0 initialization, so it wants a higher rate.
	liveLRScale = 2

	// liveEpochs is how many passes the co-located trainer makes over each
	// window's cached data (idle CPUs re-sample the ring buffer continuously;
	// paper Fig 7's update path).
	liveEpochs = 2

	// trainerStride feeds the remote training cluster every second sample of
	// a window. Production pipelines feed the data lake a *sample* of global
	// traffic (paper Fig 2: "1% sampling"), while the inference node's ring
	// buffer holds every request it served — a data advantage for local
	// adaptation.
	trainerStride = 2
)

// DefaultHarnessConfig returns the paper's evaluation schedule over its
// 5-minute windows: 10-minute updates, hourly full sync.
func DefaultHarnessConfig(p trace.Profile, k Kind, seed uint64) HarnessConfig {
	return HarnessConfig{
		Profile:          p,
		Seed:             seed,
		Kind:             k,
		QuickAlpha:       defaultQuickAlpha,
		UpdateEvery:      2,
		FullSyncEvery:    12,
		SamplesPerWindow: 600,
	}
}

// validate reports configuration errors.
func (c HarnessConfig) validate() error {
	if err := c.Profile.Validate(); err != nil {
		return err
	}
	switch {
	case c.UpdateEvery <= 0:
		return fmt.Errorf("update: UpdateEvery must be positive")
	case c.SamplesPerWindow <= 0:
		return fmt.Errorf("update: SamplesPerWindow must be positive")
	case c.Kind == QuickUpdate && (c.QuickAlpha <= 0 || c.QuickAlpha > 1):
		return fmt.Errorf("update: QuickAlpha must be in (0,1]")
	}
	return nil
}

// Harness runs one strategy over a drifting stream: a training-cluster model
// stays continuously fresh, an inference replica receives state per the
// strategy, and test-then-train evaluation produces the per-window AUC
// series of Figs 3b/15.
//
// The two clusters share no state between syncs, so a Step runs them side
// by side. A goroutine started by the Step (the cluster goroutine) owns the
// training cluster — trainModel, trainEmb, trainer, share, history and head
// — and gen, from which it generates the next window into next; the
// caller's goroutine owns the inference replica — infModel, infGroup,
// infBase, loraSet, liveTrainer, eval and aucSeries. Both only read Cfg and
// the window's samples. The Step joins on wg before it counts the window and
// runs a sync, the only code that reads one cluster and writes the other.
// Pretrain overlaps the same way: its goroutine generates the next window
// while the caller trains the cluster on the current one. The generator is
// read in one order and neither side reads the other's state, so no bit
// depends on the scheduling, GOMAXPROCS=1 included.
type Harness struct {
	Cfg HarnessConfig

	// delay models the inter-cluster transfer delay of DeltaUpdate and
	// QuickUpdate: the state installed at a sync is the training cluster's
	// snapshot from this many windows ago (a TB-scale delta takes minutes on
	// 100 GbE — paper Figs 8/14). It follows Fig 14's payload arithmetic: a
	// full delta takes about two windows to land, QuickUpdate's filtered
	// delta one. LiveUpdate has no transfer and ignores it. Negative
	// disables the pipeline (instant sync).
	delay int

	gen  *trace.Generator
	next []trace.Sample // the window generated ahead, taken first by takeWindow
	wg   sync.WaitGroup // joins the goroutine a Step or a Pretrain window starts

	// Training cluster: always trains on the freshest data. trainer.Opt is
	// the dense optimizer.
	trainModel *dlrm.Model
	trainEmb   *dlrm.BaseEmbeddings
	trainer    dlrm.Trainer
	share      []trace.Sample // trainerShare's buffer, reused every window

	// Inference replica.
	infModel    *dlrm.Model
	infGroup    *emt.Group
	infBase     *dlrm.BaseEmbeddings
	loraSet     *lora.Set       // LiveUpdate only
	liveTrainer dlrm.Trainer    // LiveUpdate's co-located trainer: no optimizer, dense layers frozen
	eval        dlrm.AUCBuffers // the evaluation's arrays, reused every window

	window        int
	bytes         int64
	syncs         int
	fullSyncs     int
	aucSeries     []float64
	updateMarkers []int // window indices where a sync landed

	// history is the transfer-delay pipeline: a ring of the training
	// cluster's states at the starts of its last delay windows, newest at
	// head. The state at the end of the current window is the live one.
	// Once full, the ring's snapshots are overwritten in place.
	history []clusterSnapshot
	head    int

	deltaBuf []emt.RowDelta // one table's sync payload, reused across tables and syncs
}

// clusterSnapshot is the training cluster's state at one window boundary.
type clusterSnapshot struct {
	model *dlrm.Model
	group *emt.Group
}

// NewHarness builds the two-cluster setup with identical initial weights
// (paper: "all systems start from identical model version 0").
func NewHarness(cfg HarnessConfig) (*Harness, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	gen, err := trace.NewGenerator(cfg.Profile, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(cfg.Seed ^ 0xdeadbeef)
	mcfg := dlrm.ConfigForProfile(cfg.Profile)
	trainModel, err := dlrm.NewModel(mcfg, rng)
	if err != nil {
		return nil, err
	}
	trainGroup := emt.NewGroup(cfg.Profile.NumTables, cfg.Profile.TableSize,
		cfg.Profile.EmbeddingDim, tensor.NewRNG(cfg.Seed^0xabc))

	h := &Harness{
		Cfg:        cfg,
		delay:      1,
		gen:        gen,
		trainModel: trainModel,
		trainEmb:   &dlrm.BaseEmbeddings{Group: trainGroup},
		infModel:   trainModel.Clone(),
		infGroup:   trainGroup.Clone(),
	}
	if cfg.Kind == DeltaUpdate {
		h.delay = 2
	}
	h.trainer = dlrm.Trainer{Model: h.trainModel, Emb: h.trainEmb, Opt: dlrm.SGD{LR: learningRate}, EmbLR: learningRate}
	h.infBase = &dlrm.BaseEmbeddings{Group: h.infGroup}
	if cfg.Kind == LiveUpdate {
		lcfg := lora.DefaultConfig(cfg.Profile.TableSize, cfg.Profile.EmbeddingDim)
		lcfg.Seed = cfg.Seed
		lcfg.AdaptInterval = 64
		if cfg.FixedRank > 0 {
			lcfg.InitialRank = cfg.FixedRank
			lcfg.DisableRankAdapt = true
			if lcfg.MaxRank < cfg.FixedRank {
				lcfg.MaxRank = cfg.FixedRank
			}
		}
		h.loraSet, err = lora.NewSet(h.infGroup, lcfg)
		if err != nil {
			return nil, err
		}
		h.liveTrainer = dlrm.Trainer{Model: h.infModel, Emb: h.loraSet, EmbLR: liveLRScale * learningRate}
	}
	return h, nil
}

// MustNewHarness panics on configuration errors.
func MustNewHarness(cfg HarnessConfig) *Harness {
	h, err := NewHarness(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// infSource returns the inference-side EmbeddingSource for the strategy.
func (h *Harness) infSource() dlrm.EmbeddingSource {
	if h.Cfg.Kind == LiveUpdate {
		return h.loraSet
	}
	return h.infBase
}

// Pretrain warms both clusters on `windows` windows of pre-stream data so
// evaluation starts from a trained Day-1 checkpoint (paper §V-C). Each
// window's successor is generated on a goroutine of its own while the
// cluster trains.
func (h *Harness) Pretrain(windows int) {
	for w := 0; w < windows; w++ {
		samples := h.takeWindow()
		h.wg.Add(1)
		go h.prefetch()
		h.trainer.TrainEpochs(samples, batch, 1)
		h.wg.Wait()
	}
	h.checkpoint()
}

// checkpoint ends Pretrain: inference starts identical to the trainer, and
// the transfer pipeline's history starts from this checkpoint.
func (h *Harness) checkpoint() {
	h.forceFullSync(false)
	h.history = nil
}

// Step executes one evaluation window: test-then-train on fresh samples,
// then apply the strategy's scheduled syncs. It returns the window's AUC
// measured *before* any model state changed (the staleness the user saw).
// The training cluster's part of the window runs on a goroutine of its own
// (see Harness).
func (h *Harness) Step() float64 {
	samples := h.takeWindow()
	h.wg.Add(1)
	go h.trainCluster(samples)

	auc := h.eval.EvaluateAUC(h.infModel, h.infSource(), samples)
	h.aucSeries = append(h.aucSeries, auc)

	// LiveUpdate's co-located trainer learns locally from the same window
	// (its ring buffer holds exactly the requests it served).
	if h.Cfg.Kind == LiveUpdate {
		h.liveTrainer.TrainEpochs(samples, batch, liveEpochs)
	}
	h.wg.Wait()
	h.endWindow()
	return auc
}

// endWindow counts a finished window and runs the syncs it schedules.
func (h *Harness) endWindow() {
	h.window++
	if h.Cfg.FullSyncEvery > 0 && h.window%h.Cfg.FullSyncEvery == 0 {
		h.fullSync()
	} else if h.window%h.Cfg.UpdateEvery == 0 {
		h.sync()
	}
}

// trainCluster is the training cluster's part of a Step, run on the cluster
// goroutine: it records its state for the transfer pipeline, learns from its
// sampled share of the window and generates the next window.
func (h *Harness) trainCluster(samples []trace.Sample) {
	defer h.wg.Done()
	h.pushSnapshot()
	h.trainer.TrainEpochs(h.trainerShare(samples), batch, 1)
	h.next = h.generate()
}

// prefetch is Pretrain's goroutine: it generates the next window.
func (h *Harness) prefetch() {
	defer h.wg.Done()
	h.next = h.generate()
}

// generate draws one window from the stream.
func (h *Harness) generate() []trace.Sample {
	return h.gen.Batch(h.Cfg.SamplesPerWindow, windowSec)
}

// takeWindow returns the stream's next window: the one generated ahead by
// the last Step or Pretrain window, else a fresh one. Every window passes
// through here, so the clusters see the generator's windows in the order a
// loop of gen.Batch calls returns them.
func (h *Harness) takeWindow() []trace.Sample {
	if s := h.next; s != nil {
		h.next = nil
		return s
	}
	return h.generate()
}

// Run executes n windows and returns the result summary.
func (h *Harness) Run(n int) Result {
	for i := 0; i < n; i++ {
		h.Step()
	}
	return h.Result()
}

// sync applies the strategy's periodic update.
func (h *Harness) sync() {
	switch h.Cfg.Kind {
	case NoUpdate, LiveUpdate:
		// NoUpdate never syncs; LiveUpdate's periodic freshness is local
		// training, already applied in Step.
		return
	case DeltaUpdate:
		h.syncDelta()
	case QuickUpdate:
		h.syncQuick()
	}
	h.syncs++
	h.updateMarkers = append(h.updateMarkers, h.window)
}

// trainerShare returns the subset of a window the remote training cluster
// ingests: every trainerStride-th sample. During Pretrain the full window is
// used: the Day-1 checkpoint is trained offline on the lake.
func (h *Harness) trainerShare(samples []trace.Sample) []trace.Sample {
	if len(samples) == 0 {
		return samples
	}
	h.share = h.share[:0]
	for i := 0; i < len(samples); i += trainerStride {
		h.share = append(h.share, samples[i])
	}
	return h.share
}

// pipelined reports whether syncs install a delayed snapshot rather than the
// training cluster's live state; only then is the history kept.
func (h *Harness) pipelined() bool {
	return h.delay > 0 && (h.Cfg.Kind == DeltaUpdate || h.Cfg.Kind == QuickUpdate)
}

// pushSnapshot records the training cluster's state at the start of a
// window for the transfer-delay pipeline: a clone while the ring is still
// filling, afterwards a copy over the oldest snapshot.
func (h *Harness) pushSnapshot() {
	if !h.pipelined() {
		return
	}
	if len(h.history) < h.delay {
		h.history = append(h.history, clusterSnapshot{
			model: h.trainModel.Clone(),
			group: h.trainEmb.Group.Clone(),
		})
		h.head = len(h.history) - 1
		return
	}
	h.head = (h.head + 1) % len(h.history)
	snap := h.history[h.head]
	snap.model.CopyWeightsFrom(h.trainModel)
	snap.group.CopyWeightsFrom(h.trainEmb.Group)
}

// syncSource returns the training-cluster state a sync installs: the state
// at the end of the window delay windows ago (what has finished
// transferring by now), which is the ring's oldest, also while it is filling
// — or the live state when there is no pipeline.
func (h *Harness) syncSource() clusterSnapshot {
	if !h.pipelined() || len(h.history) == 0 {
		return clusterSnapshot{model: h.trainModel, group: h.trainEmb.Group}
	}
	return h.history[(h.head+1)%len(h.history)]
}

// changedRows appends to out the rows of table ti whose source values differ
// from the inference replica (the delta payload). Values alias src's rows:
// nothing writes a sync source while the sync that reads it runs.
func (h *Harness) changedRows(out []emt.RowDelta, src clusterSnapshot, ti int) []emt.RowDelta {
	inf := h.infGroup.Tables[ti]
	st := src.group.Tables[ti]
	for id := int32(0); int(id) < st.Rows(); id++ {
		srow := st.PeekRow(id)
		irow := inf.PeekRow(id)
		for i := range srow {
			if srow[i] != irow[i] {
				out = append(out, emt.RowDelta{ID: id, Values: srow})
				break
			}
		}
	}
	return out
}

// syncDelta ships every changed row plus dense weights (industry streaming
// update, paper Fig 2). The payload reflects the delayed snapshot: by the
// time a TB-scale delta lands, it is already delay windows old.
func (h *Harness) syncDelta() {
	src := h.syncSource()
	for ti, tt := range h.infGroup.Tables {
		h.deltaBuf = h.changedRows(h.deltaBuf[:0], src, ti)
		tt.ApplyDeltas(h.deltaBuf)
		h.bytes += int64(len(h.deltaBuf)) * int64(tt.Dim) * 8
	}
	h.infModel.CopyWeightsFrom(src.model)
	h.bytes += int64(src.model.DenseParamCount()) * 8
}

// syncQuick ships only the top-α fraction of changed rows by update
// magnitude (QuickUpdate's gradient-magnitude heuristic). Small-magnitude
// but semantically fresh rows are exactly what this heuristic drops
// (paper §II-C); they remain pending for later syncs.
func (h *Harness) syncQuick() {
	src := h.syncSource()
	type scored struct {
		table int
		delta emt.RowDelta
		mag   float64
	}
	var all []scored
	for ti, inf := range h.infGroup.Tables {
		h.deltaBuf = h.changedRows(h.deltaBuf[:0], src, ti)
		for _, d := range h.deltaBuf {
			infRow := inf.PeekRow(d.ID)
			mag := 0.0
			for i, v := range d.Values {
				diff := v - infRow[i]
				mag += diff * diff
			}
			all = append(all, scored{table: ti, delta: d, mag: mag})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].mag > all[j].mag })
	keep := int(h.Cfg.QuickAlpha * float64(h.Cfg.Profile.TotalEmbeddingRows()))
	if keep > len(all) {
		keep = len(all)
	}
	// Install the kept rows table by table: one ApplyDeltas (and one version
	// bump) per table that received any.
	for ti, tt := range h.infGroup.Tables {
		kept := h.deltaBuf[:0]
		for _, s := range all[:keep] {
			if s.table == ti {
				kept = append(kept, s.delta)
			}
		}
		if len(kept) > 0 {
			tt.ApplyDeltas(kept)
			h.bytes += int64(len(kept)) * int64(tt.Dim) * 8
		}
		h.deltaBuf = kept
	}
	h.infModel.CopyWeightsFrom(src.model)
	h.bytes += int64(src.model.DenseParamCount()) * 8
}

// fullSync installs the training cluster's complete state on the inference
// replica (hourly drift bound for QuickUpdate/LiveUpdate; DeltaUpdate's
// periodic sync already ships all changes).
func (h *Harness) fullSync() {
	switch h.Cfg.Kind {
	case NoUpdate:
		return
	case DeltaUpdate:
		h.syncDelta()
		h.syncs++
		h.updateMarkers = append(h.updateMarkers, h.window)
		return
	}
	h.forceFullSync(true)
	h.fullSyncs++
	h.updateMarkers = append(h.updateMarkers, h.window)
}

// forceFullSync copies everything train → inference. When countBytes is
// true the full model size is charged to the strategy.
func (h *Harness) forceFullSync(countBytes bool) {
	h.infGroup.CopyWeightsFrom(h.trainEmb.Group)
	h.infModel.CopyWeightsFrom(h.trainModel)
	h.trainEmb.Group.ResetDirty()
	if h.loraSet != nil {
		h.loraSet.ResetAdapters()
	}
	if countBytes {
		h.bytes += h.trainEmb.Group.SizeBytes() + int64(h.trainModel.DenseParamCount())*8
	}
}

// Result summarizes a harness run.
type Result struct {
	Kind          Kind
	AUCSeries     []float64
	MeanAUC       float64
	Bytes         int64
	Syncs         int
	FullSyncs     int
	UpdateMarkers []int
	LoRAOverhead  float64 // adapter bytes / EMT bytes at end (LiveUpdate)
}

// Result returns the current summary.
func (h *Harness) Result() Result {
	mean := 0.0
	for _, a := range h.aucSeries {
		mean += a
	}
	if len(h.aucSeries) > 0 {
		mean /= float64(len(h.aucSeries))
	}
	r := Result{
		Kind:          h.Cfg.Kind,
		AUCSeries:     append([]float64(nil), h.aucSeries...),
		MeanAUC:       mean,
		Bytes:         h.bytes,
		Syncs:         h.syncs,
		FullSyncs:     h.fullSyncs,
		UpdateMarkers: append([]int(nil), h.updateMarkers...),
	}
	if h.loraSet != nil {
		r.LoRAOverhead = h.loraSet.OverheadRatio()
	}
	return r
}

// LoRASet exposes the LiveUpdate adapter set (nil for other strategies).
func (h *Harness) LoRASet() *lora.Set { return h.loraSet }
