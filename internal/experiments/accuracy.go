package experiments

import (
	"fmt"

	"liveupdate/internal/collective"
	"liveupdate/internal/dlrm"
	"liveupdate/internal/emt"
	"liveupdate/internal/lora"
	"liveupdate/internal/metrics"
	"liveupdate/internal/simnet"
	"liveupdate/internal/tensor"
	"liveupdate/internal/trace"
	"liveupdate/internal/update"
)

// accProfile shrinks a dataset profile to accuracy-experiment scale.
func accProfile(name string, quick bool) trace.Profile {
	p := trace.Profiles()[name]
	p.TableSize = 800
	if quick {
		p.TableSize = 300
		if p.NumTables > 4 {
			p.NumTables = 4
			p.MultiHot = p.MultiHot[:4]
		}
	}
	return p
}

func accWindows(o Options, full int) int {
	if o.Quick {
		if full > 8 {
			return 8
		}
	}
	return full
}

func accSamples(o Options) int {
	if o.Quick {
		return 200
	}
	return 600
}

// Fig3a reproduces the embedding-update-ratio measurement (paper Fig 3a):
// the fraction of EMT rows modified within 10/30/60-minute training windows.
func Fig3a(o Options) (Report, error) {
	r := Report{
		ID:     "fig3a",
		Title:  "Embedding update ratio by window length (paper Fig 3a)",
		Header: []string{"window", "update_ratio"},
	}
	p := accProfile("bd-tb", o.Quick)
	gen, err := trace.NewGenerator(p, o.Seed)
	if err != nil {
		return r, err
	}
	rng := tensor.NewRNG(o.Seed ^ 0x3a)
	model, err := dlrm.NewModel(dlrm.ConfigForProfile(p), rng)
	if err != nil {
		return r, err
	}
	group := emt.NewGroup(p.NumTables, p.TableSize, p.EmbeddingDim, rng)
	tr := &dlrm.Trainer{Model: model, Emb: &dlrm.BaseEmbeddings{Group: group},
		Opt: dlrm.SGD{LR: 0.05}, EmbLR: 0.05}

	samplesPerMin := accSamples(o) / 5
	ratios := make(map[int]float64)
	for _, minutes := range []int{10, 30, 60} {
		group.ResetDirty()
		for m := 0; m < minutes; m++ {
			tr.TrainBatch(gen.Batch(samplesPerMin, 60))
		}
		ratio := group.DirtyRatio()
		ratios[minutes] = ratio
		r.Rows = append(r.Rows, []string{fmt.Sprintf("%d min", minutes), pct(ratio)})
	}
	if ratios[10] > 0.05 {
		r.Notes = append(r.Notes, "even 10-minute windows touch a substantial EMT fraction (paper: >10%)")
	}
	if ratios[10] < ratios[30] && ratios[30] < ratios[60] {
		r.Notes = append(r.Notes, "ratio grows sublinearly with window length (hot rows re-touched)")
	}
	return r, nil
}

// Fig3b reproduces the staleness-decay curve (paper Fig 3b): accuracy falls
// while the model is stale and sharply recovers at each update.
func Fig3b(o Options) (Report, error) {
	r := Report{
		ID:     "fig3b",
		Title:  "Accuracy along serving with periodic updates (paper Fig 3b)",
		Header: []string{"window", "minute", "AUC", "event"},
	}
	p := accProfile("bd-tb", o.Quick)
	p.DriftRate = 0.9
	cfg := update.DefaultHarnessConfig(p, update.DeltaUpdate, o.Seed)
	cfg.SamplesPerWindow = accSamples(o)
	cfg.UpdateEvery = 6 // 30-minute updates on 5-minute windows
	cfg.FullSyncEvery = 0
	h := update.MustNewHarness(cfg)
	h.Pretrain(4)
	n := accWindows(o, 18)
	res := h.Run(n)

	marks := make(map[int]bool)
	for _, m := range res.UpdateMarkers {
		marks[m] = true
	}
	var preUpdate, postUpdate []float64
	for i, auc := range res.AUCSeries {
		event := ""
		if marks[i+1] { // sync applied at the end of window i+1
			event = "update"
			preUpdate = append(preUpdate, auc)
		}
		if i > 0 && marks[i] {
			postUpdate = append(postUpdate, auc)
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d", i+1), fmt.Sprintf("%d", (i+1)*5), f4(auc), event,
		})
	}
	if len(preUpdate) > 0 && len(postUpdate) > 0 {
		gain := meanOf(postUpdate) - meanOf(preUpdate)
		r.Notes = append(r.Notes,
			fmt.Sprintf("mean AUC recovery after update: %+.4f (paper: sharp recovery at each sync)", gain))
	}
	return r, nil
}

// Fig6 reproduces the gradient-PCA analysis (paper Fig 6): a handful of
// principal components captures ≥80% of the embedding-gradient variance.
func Fig6(o Options) (Report, error) {
	r := Report{
		ID:     "fig6",
		Title:  "Cumulative PCA importance of embedding gradients (paper Fig 6)",
		Header: []string{"table", "iter", "k80", "top1", "top3", "top6"},
	}
	p := accProfile("criteo", o.Quick)
	gen, err := trace.NewGenerator(p, o.Seed)
	if err != nil {
		return r, err
	}
	rng := tensor.NewRNG(o.Seed ^ 0x6)
	model, err := dlrm.NewModel(dlrm.ConfigForProfile(p), rng)
	if err != nil {
		return r, err
	}
	group := emt.NewGroup(p.NumTables, p.TableSize, p.EmbeddingDim, rng)
	rec := &gradRecorder{base: &dlrm.BaseEmbeddings{Group: group}}
	rec.reset(p)
	tr := &dlrm.Trainer{Model: model, Emb: rec, Opt: dlrm.SGD{LR: 0.05}, EmbLR: 0.05}

	iters := 6
	if o.Quick {
		iters = 3
	}
	// Track per-table spread of k80 across iterations to pick the
	// min/max-spread tables the paper plots.
	k80 := make([][]int, p.NumTables)
	type snapshot struct {
		table, iter, k int
		ci             []float64
	}
	var snaps []snapshot
	for it := 0; it < iters; it++ {
		rec.reset(p)
		tr.TrainBatch(gen.Batch(accSamples(o), 300))
		for t := 0; t < p.NumTables; t++ {
			pca := tensor.ComputePCA(rec.mats[t])
			k := pca.MinRankForVariance(0.8)
			k80[t] = append(k80[t], k)
			snaps = append(snaps, snapshot{table: t, iter: it, k: k, ci: pca.CumulativeImportance()})
		}
	}
	minT, maxT := spreadExtremes(k80)
	maxK := 0
	for _, s := range snaps {
		if s.table != minT && s.table != maxT {
			continue
		}
		label := fmt.Sprintf("t%d(min-spread)", s.table)
		if s.table == maxT {
			label = fmt.Sprintf("t%d(max-spread)", s.table)
		}
		r.Rows = append(r.Rows, []string{
			label, fmt.Sprintf("%d", s.iter), fmt.Sprintf("%d", s.k),
			pct(s.ci[0]), pct(ciAt(s.ci, 2)), pct(ciAt(s.ci, 5)),
		})
		if s.k > maxK {
			maxK = s.k
		}
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("80%% of gradient variance needs at most %d of %d components (paper: 3-6 of 16)", maxK, p.EmbeddingDim),
		"the required rank varies across tables and iterations — motivating dynamic rank adaptation")
	return r, nil
}

// gradRecorder accumulates per-table dense gradient matrices while
// delegating updates to the base embeddings.
type gradRecorder struct {
	base *dlrm.BaseEmbeddings
	mats []*tensor.Matrix
}

func (g *gradRecorder) reset(p trace.Profile) {
	g.mats = g.mats[:0]
	for i := 0; i < p.NumTables; i++ {
		g.mats = append(g.mats, tensor.NewMatrix(p.TableSize, p.EmbeddingDim))
	}
}

func (g *gradRecorder) NumTables() int { return g.base.NumTables() }
func (g *gradRecorder) Dim() int       { return g.base.Dim() }
func (g *gradRecorder) Lookup(table int, ids []int32, dst []float64) {
	g.base.Lookup(table, ids, dst)
}
func (g *gradRecorder) ApplyGrad(table int, ids []int32, grad []float64, lr float64) {
	if len(ids) > 0 {
		inv := 1 / float64(len(ids))
		for _, id := range ids {
			row := g.mats[table].Row(int(id))
			for i, v := range grad {
				row[i] += inv * v
			}
		}
	}
	g.base.ApplyGrad(table, ids, grad, lr)
}

// Fig9 reproduces the sync-interval sweep (paper Fig 9): longer LoRA sync
// intervals widen the accuracy gap between distributed replicas.
func Fig9(o Options) (Report, error) {
	r := Report{
		ID:     "fig9",
		Title:  "Accuracy gap vs LoRA sync interval (paper Fig 9)",
		Header: []string{"sync_every(windows)", "meanAUC", "gap_vs_tightest"},
	}
	p := accProfile("criteo", o.Quick)
	p.DriftRate = 0.7
	windows := accWindows(o, 12)
	intervals := []int{1, 2, 4, 8}
	aucs := make([]float64, 0, len(intervals))
	for _, interval := range intervals {
		auc, err := runReplicaPair(p, o, interval, windows)
		if err != nil {
			return r, err
		}
		aucs = append(aucs, auc)
	}
	for i, interval := range intervals {
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d", interval), f4(aucs[i]), f4(aucs[i] - aucs[0]),
		})
	}
	if aucs[len(aucs)-1] <= aucs[0] {
		r.Notes = append(r.Notes, "tighter sync intervals yield equal or better accuracy (paper Fig 9 trend)")
	}
	return r, nil
}

// runReplicaPair trains two LiveUpdate replicas on disjoint halves of one
// stream, syncing every `interval` windows, and returns their mean AUC.
func runReplicaPair(p trace.Profile, o Options, interval, windows int) (float64, error) {
	gen, err := trace.NewGenerator(p, o.Seed)
	if err != nil {
		return 0, err
	}
	rng := tensor.NewRNG(o.Seed ^ 0x9)
	model, err := dlrm.NewModel(dlrm.ConfigForProfile(p), rng)
	if err != nil {
		return 0, err
	}
	group := emt.NewGroup(p.NumTables, p.TableSize, p.EmbeddingDim, rng)
	// Pretrain the shared base.
	bt := &dlrm.Trainer{Model: model, Emb: &dlrm.BaseEmbeddings{Group: group},
		Opt: dlrm.SGD{LR: 0.05}, EmbLR: 0.05}
	for w := 0; w < 4; w++ {
		bt.TrainBatch(gen.Batch(accSamples(o), 300))
	}
	group.ResetDirty()

	lcfg := lora.DefaultConfig(p.TableSize, p.EmbeddingDim)
	lcfg.AdaptInterval = 64
	replicas := make([]*lora.Set, 2)
	for i := range replicas {
		c := lcfg
		c.Seed = uint64(i) + o.Seed
		replicas[i], err = lora.NewSet(group.Clone(), c)
		if err != nil {
			return 0, err
		}
	}
	sg := collective.NewSyncGroup(replicas, simnet.Gbps100, 0.001)
	clock := simnet.NewClock()

	sum, count := 0.0, 0
	for w := 0; w < windows; w++ {
		samples := gen.Batch(accSamples(o), 300)
		// Evaluate each replica on the full fresh window.
		for _, rep := range replicas {
			sum += dlrm.EvaluateAUC(model, rep, samples)
			count++
		}
		// Round-robin request sharding: each replica trains on its half.
		for i, s := range samples {
			rep := replicas[i%2]
			cache := dlrm.ForwardCache{Frozen: true}
			logit := model.Forward(rep, s.Dense, s.Sparse, &cache)
			dLogit := dlrm.Sigmoid(logit) - float64(s.Label)
			dEmb := model.BackwardInput(dLogit, &cache)
			for t, g := range dEmb {
				rep.ApplyGrad(t, s.Sparse[t], g, 0.05)
			}
		}
		if (w+1)%interval == 0 {
			if _, err := sg.Sync(clock); err != nil {
				return 0, err
			}
		}
	}
	return sum / float64(count), nil
}

// Fig12 reproduces the access-distribution CDF (paper Fig 12): a tiny
// fraction of embedding indices receives nearly all accesses.
func Fig12(o Options) (Report, error) {
	r := Report{
		ID:     "fig12",
		Title:  "CDF of embedding access distribution (paper Fig 12)",
		Header: []string{"top_fraction", "access_share"},
	}
	p := accProfile("bd-tb", o.Quick)
	gen, err := trace.NewGenerator(p, o.Seed)
	if err != nil {
		return r, err
	}
	n := 40000
	if o.Quick {
		n = 10000
	}
	for i := 0; i < n; i++ {
		gen.Next()
	}
	// Aggregate counts across tables.
	var counts []uint64
	for _, c := range gen.AccessCounts() {
		counts = append(counts, c...)
	}
	var top10 float64
	for _, frac := range []float64{0.01, 0.05, 0.10, 0.20, 0.50} {
		share := metrics.TopShareCDF(counts, frac)
		if frac == 0.10 {
			top10 = share
		}
		r.Rows = append(r.Rows, []string{pct(frac), pct(share)})
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("top 10%% of indices receive %s of accesses (paper: 93.8%%) — sets τ_prune", pct(top10)))
	return r, nil
}

// Table3 reproduces the headline accuracy comparison (paper Table III):
// average AUC improvement over DeltaUpdate with 10-minute updates.
func Table3(o Options) (Report, error) {
	r := Report{
		ID:     "table3",
		Title:  "Average AUC improvement (%) vs DeltaUpdate, 10-min updates (paper Table III)",
		Header: []string{"strategy"},
	}
	datasets := []string{"avazu", "criteo", "bd-tb"}
	if o.Quick {
		datasets = []string{"criteo"}
	}
	type variant struct {
		name      string
		kind      update.Kind
		quick     float64
		fixedRank int
	}
	variants := []variant{
		{name: "DeltaUpdate", kind: update.DeltaUpdate},
		{name: "NoUpdate", kind: update.NoUpdate},
		{name: "QuickUpdate-5%", kind: update.QuickUpdate, quick: 0.05},
		{name: "QuickUpdate-10%", kind: update.QuickUpdate, quick: 0.10},
		{name: "LiveUpdate-8 (fixed)", kind: update.LiveUpdate, fixedRank: 8},
		{name: "LiveUpdate-16 (fixed)", kind: update.LiveUpdate, fixedRank: 16},
		{name: "LiveUpdate (dynamic)", kind: update.LiveUpdate},
	}
	windows := accWindows(o, 12)
	pretrain := 12
	seeds := []uint64{o.Seed, o.Seed + 1, o.Seed + 2}
	if o.Quick {
		pretrain = 4
		seeds = seeds[:1]
	}
	results := make(map[string]map[string]float64) // dataset → variant → meanAUC
	overheads := make(map[string]float64)
	for _, d := range datasets {
		r.Header = append(r.Header, trace.Profiles()[d].Name)
		results[d] = make(map[string]float64)
		for _, v := range variants {
			var sum float64
			for _, seed := range seeds {
				p := accProfile(d, o.Quick)
				p.DriftRate *= 2.5 // pronounced drift: staleness dominates seed noise
				cfg := update.DefaultHarnessConfig(p, v.kind, seed)
				cfg.SamplesPerWindow = accSamples(o)
				cfg.UpdateEvery = 2
				cfg.FullSyncEvery = 12
				if v.quick > 0 {
					cfg.QuickAlpha = v.quick
				}
				cfg.FixedRank = v.fixedRank
				h := update.MustNewHarness(cfg)
				h.Pretrain(pretrain)
				res := h.Run(windows)
				sum += res.MeanAUC
				if v.name == "LiveUpdate (dynamic)" {
					overheads[d] = res.LoRAOverhead
				}
			}
			results[d][v.name] = sum / float64(len(seeds))
		}
	}
	for _, v := range variants {
		row := []string{v.name}
		for _, d := range datasets {
			delta := (results[d][v.name] - results[d]["DeltaUpdate"]) * 100
			if v.name == "DeltaUpdate" {
				row = append(row, "0 (baseline)")
			} else {
				row = append(row, fmt.Sprintf("%+.2f", delta))
			}
		}
		r.Rows = append(r.Rows, row)
	}
	for _, d := range datasets {
		live := results[d]["LiveUpdate (dynamic)"]
		no := results[d]["NoUpdate"]
		if live > no {
			r.Notes = append(r.Notes, fmt.Sprintf("%s: LiveUpdate beats NoUpdate by %+.2f AUC pts; adapter overhead %s of EMT",
				trace.Profiles()[d].Name, (live-no)*100, pct(overheads[d])))
		}
	}
	r.Notes = append(r.Notes, "paper reports +0.04 to +0.24 for LiveUpdate variants; NoUpdate at -0.19 to -2.24")
	return r, nil
}

// Fig15 reproduces the two-hour accuracy trace (paper Fig 15): per-window
// AUC for DeltaUpdate, QuickUpdate, and LiveUpdate with 5-minute updates and
// hourly full syncs.
func Fig15(o Options) (Report, error) {
	r := Report{
		ID:     "fig15",
		Title:  "Accuracy over two hours, 5-min updates, hourly full sync (paper Fig 15)",
		Header: []string{"minute", "DeltaUpdate", "QuickUpdate", "LiveUpdate", "event"},
	}
	windows := accWindows(o, 24)
	kinds := []update.Kind{update.DeltaUpdate, update.QuickUpdate, update.LiveUpdate}
	series := make([][]float64, len(kinds))
	var liveMarkers map[int]bool
	pretrain := 12
	if o.Quick {
		pretrain = 4
	}
	for i, k := range kinds {
		p := accProfile("bd-tb", o.Quick)
		p.DriftRate *= 2.5
		cfg := update.DefaultHarnessConfig(p, k, o.Seed)
		cfg.SamplesPerWindow = accSamples(o)
		cfg.UpdateEvery = 1    // 5-minute updates
		cfg.FullSyncEvery = 12 // hourly
		h := update.MustNewHarness(cfg)
		h.Pretrain(pretrain)
		res := h.Run(windows)
		series[i] = res.AUCSeries
		if k == update.LiveUpdate {
			liveMarkers = make(map[int]bool)
			for _, m := range res.UpdateMarkers {
				liveMarkers[m] = true
			}
		}
	}
	liveWins := 0
	for w := 0; w < windows; w++ {
		event := ""
		if liveMarkers[w] {
			event = "full-update"
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d", (w+1)*5), f4(series[0][w]), f4(series[1][w]), f4(series[2][w]), event,
		})
		if series[2][w] >= series[0][w] {
			liveWins++
		}
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("LiveUpdate ≥ DeltaUpdate in %d/%d windows (paper: surpasses most of the time)", liveWins, windows),
		"grey 'full-update' rows mark the hourly full-parameter syncs")
	return r, nil
}

// Fig17 reproduces the memory-optimization ablation (paper Fig 17): dynamic
// rank adaptation and pruning shrink the LoRA footprint by 97-99% vs a
// fixed-rank, fully resident table.
func Fig17(o Options) (Report, error) {
	r := Report{
		ID:     "fig17",
		Title:  "LoRA memory footprint by optimization (paper Fig 17)",
		Header: []string{"dataset", "fixed-16(B)", "dyn-rank(B)", "dyn+prune(B)", "rank_saving", "total_saving"},
	}
	datasets := []string{"avazu", "criteo", "bd-tb"}
	if o.Quick {
		datasets = []string{"criteo"}
	}
	for _, d := range datasets {
		p := accProfile(d, o.Quick)
		cfg := update.DefaultHarnessConfig(p, update.LiveUpdate, o.Seed)
		cfg.SamplesPerWindow = accSamples(o)
		cfg.FullSyncEvery = 0
		h := update.MustNewHarness(cfg)
		h.Pretrain(2)
		h.Run(accWindows(o, 8))
		set := h.LoRASet()

		var fixed16, dynFull, actual int64
		for ti, a := range set.Adapters {
			rows := int64(set.Base.Tables[ti].Rows())
			dim := int64(set.Base.Tables[ti].Dim)
			fixed16 += rows*16*8 + 16*dim*8
			dynFull += rows*int64(a.Rank())*8 + int64(a.Rank())*dim*8
			actual += a.SizeBytes()
		}
		r.Rows = append(r.Rows, []string{
			trace.Profiles()[d].Name,
			fmt.Sprintf("%d", fixed16),
			fmt.Sprintf("%d", dynFull),
			fmt.Sprintf("%d", actual),
			pct(1 - float64(dynFull)/float64(fixed16)),
			pct(1 - float64(actual)/float64(fixed16)),
		})
	}
	r.Notes = append(r.Notes,
		"paper: dynamic rank saves 80-89%, pruning brings the total to 97-99%",
		"for a 50 TB model this is the difference between 8 TB and ~0.5-1.5 TB of adapter state")
	return r, nil
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ciAt(ci []float64, idx int) float64 {
	if idx >= len(ci) {
		return 1
	}
	return ci[idx]
}

// spreadExtremes returns the table indices with the smallest and largest
// spread (max-min) of k80 across iterations.
func spreadExtremes(k80 [][]int) (minT, maxT int) {
	bestSpread, worstSpread := -1, -1
	for t, ks := range k80 {
		lo, hi := ks[0], ks[0]
		for _, k := range ks {
			if k < lo {
				lo = k
			}
			if k > hi {
				hi = k
			}
		}
		spread := hi - lo
		if bestSpread == -1 || spread < bestSpread {
			bestSpread = spread
			minT = t
		}
		if worstSpread == -1 || spread > worstSpread {
			worstSpread = spread
			maxT = t
		}
	}
	return minT, maxT
}
