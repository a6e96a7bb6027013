package update

import (
	"fmt"
	"sort"

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

	WindowSec        float64 // evaluation/training step (paper: 300 s)
	UpdateEvery      int     // windows between strategy syncs (2 → 10 min)
	FullSyncEvery    int     // windows between full syncs (12 → hourly); 0 = never
	SamplesPerWindow int

	DenseLR float64
	EmbLR   float64
	Batch   int

	// LiveEmbLR is the co-located LoRA trainer's learning rate. LoRA's
	// parameterized update moves ∆W slower than direct SGD near the B=0
	// initialization, so it wants a higher rate; 0 means 2×EmbLR.
	LiveEmbLR float64

	// SyncDelayWindows models the inter-cluster transfer delay of
	// DeltaUpdate/QuickUpdate: the state installed at a sync is the training
	// cluster's snapshot from this many windows ago (a TB-scale delta takes
	// minutes on 100 GbE — paper Figs 8/14). LiveUpdate has no transfer and
	// ignores this. Negative disables the pipeline (instant sync).
	SyncDelayWindows int

	// TrainerSampleFrac is the fraction of each window's interactions the
	// remote training cluster ingests. Production pipelines feed the data
	// lake a *sample* of global traffic (paper Fig 2: "1% sampling"), while
	// the inference node's ring buffer holds every request it served — a
	// data advantage for local adaptation. 0 means 0.5.
	TrainerSampleFrac float64

	// LoRA controls LiveUpdate variants. Rank 0 = dynamic (paper default);
	// a positive FixedRank freezes the adapter at that rank.
	FixedRank int
	LoRAAlpha float64 // variance threshold α; 0 → 0.8

	// LiveEpochs is how many passes the co-located trainer makes over each
	// window's cached data (idle CPUs re-sample the ring buffer
	// continuously; paper Fig 7's update path). 0 means 2.
	LiveEpochs int
}

// DefaultHarnessConfig returns the paper's evaluation schedule: 5-minute
// windows, 10-minute updates, hourly full sync. The transfer-delay default
// follows Fig 14's payload arithmetic: a full delta takes roughly two
// windows to land, QuickUpdate's filtered delta one.
func DefaultHarnessConfig(p trace.Profile, k Kind, seed uint64) HarnessConfig {
	delay := 1
	if k == DeltaUpdate {
		delay = 2
	}
	return HarnessConfig{
		Profile:          p,
		Seed:             seed,
		Kind:             k,
		QuickAlpha:       0.05,
		WindowSec:        300,
		UpdateEvery:      2,
		FullSyncEvery:    12,
		SamplesPerWindow: 600,
		DenseLR:          0.05,
		EmbLR:            0.05,
		Batch:            64,
		SyncDelayWindows: delay,
	}
}

// Validate reports configuration errors.
func (c HarnessConfig) Validate() error {
	if err := c.Profile.Validate(); err != nil {
		return err
	}
	switch {
	case c.WindowSec <= 0:
		return fmt.Errorf("update: WindowSec must be positive")
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
type Harness struct {
	Cfg HarnessConfig

	gen *trace.Generator

	// Training cluster: always trains on the freshest data. trainer.Opt is
	// the dense optimizer (SetDenseOpt replaces it).
	trainModel *dlrm.Model
	trainEmb   *dlrm.BaseEmbeddings
	trainer    dlrm.Trainer
	share      []trace.Sample // trainerShare's buffer, reused every window

	// Inference replica.
	infModel    *dlrm.Model
	infGroup    *emt.Group
	infBase     *dlrm.BaseEmbeddings
	loraSet     *lora.Set    // LiveUpdate only
	liveTrainer dlrm.Trainer // LiveUpdate's co-located trainer: no optimizer, dense layers frozen

	window        int
	bytes         int64
	syncs         int
	fullSyncs     int
	aucSeries     []float64
	updateMarkers []int // window indices where a sync landed

	// history is the transfer-delay pipeline (SyncDelayWindows): a ring of
	// the training cluster's last SyncDelayWindows+1 window-boundary states,
	// newest at head. Once full, its snapshots are overwritten in place.
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
	if err := cfg.Validate(); err != nil {
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
		gen:        gen,
		trainModel: trainModel,
		trainEmb:   &dlrm.BaseEmbeddings{Group: trainGroup},
		infModel:   trainModel.Clone(),
		infGroup:   trainGroup.Clone(),
	}
	h.trainer = dlrm.Trainer{Model: h.trainModel, Emb: h.trainEmb, Opt: dlrm.SGD{LR: cfg.DenseLR}, EmbLR: cfg.EmbLR}
	h.infBase = &dlrm.BaseEmbeddings{Group: h.infGroup}
	if cfg.Kind == LiveUpdate {
		lcfg := lora.DefaultConfig(cfg.Profile.TableSize, cfg.Profile.EmbeddingDim)
		lcfg.Seed = cfg.Seed
		lcfg.AdaptInterval = 64
		if cfg.LoRAAlpha > 0 {
			lcfg.Alpha = cfg.LoRAAlpha
		}
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
		lr := cfg.LiveEmbLR
		if lr == 0 {
			lr = 2 * cfg.EmbLR
		}
		h.liveTrainer = dlrm.Trainer{Model: h.infModel, Emb: h.loraSet, EmbLR: lr}
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
// evaluation starts from a trained Day-1 checkpoint (paper §V-C).
func (h *Harness) Pretrain(windows int) {
	for w := 0; w < windows; w++ {
		samples := h.gen.Batch(h.Cfg.SamplesPerWindow, h.Cfg.WindowSec)
		h.trainer.TrainEpochs(samples, h.Cfg.Batch, 1)
	}
	// Checkpoint: inference starts identical to the trainer, and the
	// transfer pipeline's history starts from this checkpoint.
	h.forceFullSync(false)
	h.history = nil
	h.pushSnapshot()
}

// Step executes one evaluation window: test-then-train on fresh samples,
// then apply the strategy's scheduled syncs. It returns the window's AUC
// measured *before* any model state changed (the staleness the user saw).
func (h *Harness) Step() float64 {
	cfg := h.Cfg
	samples := h.gen.Batch(cfg.SamplesPerWindow, cfg.WindowSec)

	auc := dlrm.EvaluateAUC(h.infModel, h.infSource(), samples)
	h.aucSeries = append(h.aucSeries, auc)

	// Training cluster learns from its sampled share of the fresh window.
	h.trainer.TrainEpochs(h.trainerShare(samples), cfg.Batch, 1)
	h.pushSnapshot()

	// LiveUpdate's co-located trainer learns locally from the same window
	// (its ring buffer holds exactly the requests it served).
	if cfg.Kind == LiveUpdate {
		epochs := cfg.LiveEpochs
		if epochs == 0 {
			epochs = 2
		}
		h.liveTrainer.TrainEpochs(samples, cfg.Batch, epochs)
	}

	h.window++
	if cfg.FullSyncEvery > 0 && h.window%cfg.FullSyncEvery == 0 {
		h.fullSync()
	} else if h.window%cfg.UpdateEvery == 0 {
		h.sync()
	}
	return auc
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
// ingests (every k-th sample per TrainerSampleFrac). During Pretrain the
// full window is used: the Day-1 checkpoint is trained offline on the lake.
func (h *Harness) trainerShare(samples []trace.Sample) []trace.Sample {
	frac := h.Cfg.TrainerSampleFrac
	if frac == 0 {
		frac = 0.5
	}
	if frac >= 1 || len(samples) == 0 {
		return samples
	}
	stride := int(1 / frac)
	if stride < 1 {
		stride = 1
	}
	h.share = h.share[:0]
	for i := 0; i < len(samples); i += stride {
		h.share = append(h.share, samples[i])
	}
	return h.share
}

// pipelined reports whether syncs install a delayed snapshot rather than the
// training cluster's live state; only then is the history kept.
func (h *Harness) pipelined() bool {
	return h.Cfg.SyncDelayWindows > 0 && (h.Cfg.Kind == DeltaUpdate || h.Cfg.Kind == QuickUpdate)
}

// pushSnapshot records the training cluster's state for the transfer-delay
// pipeline: a clone while the ring is still filling, afterwards a copy over
// the oldest snapshot.
func (h *Harness) pushSnapshot() {
	if !h.pipelined() {
		return
	}
	if len(h.history) <= h.Cfg.SyncDelayWindows {
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

// syncSource returns the training-cluster state a sync installs: the
// snapshot from SyncDelayWindows ago (what has finished transferring by
// now), which is the ring's oldest, also while it is filling — or the live
// state when there is no pipeline.
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
// time a TB-scale delta lands, it is already SyncDelayWindows old.
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

// Generator exposes the stream generator (e.g. for access-distribution
// statistics after a run).
func (h *Harness) Generator() *trace.Generator { return h.gen }

// TrainerGroup exposes the training cluster's tables (Fig 3a measurements).
func (h *Harness) TrainerGroup() *emt.Group { return h.trainEmb.Group }

// SetDenseOpt overrides the training cluster's dense-layer optimizer from the
// next Pretrain or Step on (e.g. Adagrad, the production choice, which
// stabilizes long streaming runs).
func (h *Harness) SetDenseOpt(opt dlrm.Optimizer) { h.trainer.Opt = opt }
