// Package lora implements the paper's core contribution: Low-Rank Adaptation
// tables for embedding updates (∆W = A·B, Eq. 3), with the two memory
// mechanisms of §IV-C — variance-aware dynamic rank adaptation and
// usage-based table pruning (Algorithm 1) — plus merge/export primitives for
// the cross-node sync protocol (Algorithm 3).
//
// # Storage and concurrency model
//
// An Adapter holds its factors as two plain fields: the shared dense B and a
// row store for the sparse A. The store is flat — one slab of slots×rank
// coefficients, one per-slot array of ids and bookkeeping, one open-addressed
// id → slot index — so a lookup is one probe and a new row takes the next
// slab slot instead of a heap object. Every operation writes the factors in
// place, and one rule, kept by the caller, separates three classes of calls:
//
//   - Writers (train, Resize, reset and Set.Publish) exclude readers,
//     exporters and each other.
//   - Exporters (Snapshot, ExportFull) exclude writers. They copy the factors
//     and write only the per-slot support bits, which no reader looks at, so
//     they may run beside readers.
//   - Readers (Set.Lookup, EffectiveRow, accumulate, Rank, ActiveCount) run
//     together.
//
// The update counts, the support bits and the owner bookkeeping outside the
// factors belong to writers and exporters alone. core.System keeps the rule
// with two locks: its forwards hold paramMu for read, every adapter write
// holds it for write inside the node mutex, and an export holds the node
// mutex alone.
//
// The index has no tombstones because nothing deletes one row: rows leave
// only inside adapt, which walks every row once per window anyway and, when
// it evicted any, compacts the slab and rebuilds the index in that pass; Reset
// starts from an empty store.
package lora

import (
	"fmt"
	"math"
	"slices"

	"liveupdate/internal/tensor"
)

// Config controls adapter behaviour. Defaults follow the paper: α = 0.8,
// adaptation every 128 iterations, initial capacity 10% of |V|. The paper's
// C_min capacity floor has no knob: pruning cannot resurrect an evicted row,
// so it never binds.
type Config struct {
	Dim           int     // embedding dimension d
	InitialRank   int     // starting k (paper observes 3-6 typical)
	MinRank       int     // lower clamp for adapted rank
	MaxRank       int     // upper clamp (≤ d)
	Alpha         float64 // variance threshold α for Eq. 2
	AdaptInterval int     // iterations between rank/prune passes (paper: 128)
	PruneThresh   int     // τ_prune: min updates per window to stay active
	CMax          int     // maximum LoRA table capacity (≤ |V|)
	GradWindow    int     // gradient snapshots retained for PCA
	Seed          uint64  // RNG seed for A-row initialization

	// DisableRankAdapt freezes the rank at InitialRank (the paper's
	// fixed-rank LiveUpdate-α ablation variants); pruning still runs.
	DisableRankAdapt bool
}

// DefaultConfig returns paper-default parameters for a table of |V| rows and
// dimension d.
func DefaultConfig(rows, dim int) Config {
	return Config{
		Dim:           dim,
		InitialRank:   4,
		MinRank:       1,
		MaxRank:       dim,
		Alpha:         0.8,
		AdaptInterval: 128,
		PruneThresh:   1,
		CMax:          rows,
		GradWindow:    256,
	}
}

// validate reports configuration errors.
func (c Config) validate() error {
	switch {
	case c.Dim <= 0:
		return fmt.Errorf("lora: Dim must be positive")
	case c.InitialRank <= 0 || c.InitialRank > c.Dim:
		return fmt.Errorf("lora: InitialRank %d out of (0,%d]", c.InitialRank, c.Dim)
	case c.MinRank <= 0 || c.MinRank > c.MaxRank:
		return fmt.Errorf("lora: rank bounds [%d,%d] invalid", c.MinRank, c.MaxRank)
	case c.MaxRank > c.Dim:
		return fmt.Errorf("lora: MaxRank %d exceeds Dim %d", c.MaxRank, c.Dim)
	case c.InitialRank < c.MinRank || c.InitialRank > c.MaxRank:
		return fmt.Errorf("lora: InitialRank %d outside rank bounds [%d,%d]", c.InitialRank, c.MinRank, c.MaxRank)
	case c.Alpha <= 0 || c.Alpha > 1:
		return fmt.Errorf("lora: Alpha must be in (0,1]")
	case c.AdaptInterval <= 0:
		return fmt.Errorf("lora: AdaptInterval must be positive")
	case c.CMax <= 0:
		return fmt.Errorf("lora: CMax must be positive, got %d", c.CMax)
	case c.GradWindow <= 0:
		return fmt.Errorf("lora: GradWindow must be positive")
	}
	return nil
}

// Adapter is the LoRA table for one embedding table: sparse rows A[i] ∈ R^k
// for active indices plus a shared dense factor B ∈ R^{k×d}. See the package
// comment for which operations are safe without the owner's serialization.
type Adapter struct {
	cfg  Config
	b    *tensor.Matrix // rank×dim
	rows rowStore       // A rows for active ids; rows.rank is the LoRA rank

	// Owner-only bookkeeping (training statistics, adaptation windows). The
	// per-row part — update counts, support bits — lives in the row store.
	//
	// ghosts holds the ids that were in the support set when adapt evicted
	// their row: Algorithm 3's support is a set of ids, not of rows, so an id
	// a later sync re-installs is exported as modified again.
	ghosts idIndex

	iter  int
	grads *gradWindow // recent pooled gradients; nil with DisableRankAdapt

	rankObsSum   int // Σ r_t within the adaptation interval
	rankObsCount int

	adaptations int // completed rank/prune passes
	pruned      int // total rows evicted

	// adapt's reusable buffers (eigen-solve of the window covariance,
	// candidate slots of the prune step, Resize's id order): a pass that does
	// not change the rank allocates nothing.
	spectrum tensor.SpectrumScratch
	active   []int32
	byID     []int32

	// daScratch and coefScratch are Train's per-rank scratches (the hoisted
	// A-gradient step and the summed pre-update A coefficients), reused
	// across calls so a training tick allocates nothing per sample
	// (owner-only, like Train itself); they are regrown when the rank
	// changes.
	daScratch   []float64
	coefScratch []float64

	rng *tensor.RNG // A-row initialization
}

// newAdapter builds an adapter using the standard LoRA initialization:
// B starts at zero and A rows are drawn randomly on allocation, so ∆W = AB
// is exactly zero at first (serving matches the base table) while gradients
// can still flow into B.
func newAdapter(cfg Config) (*Adapter, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	a := &Adapter{
		cfg:  cfg,
		b:    tensor.NewMatrix(cfg.InitialRank, cfg.Dim),
		rows: rowStore{rank: cfg.InitialRank},
		rng:  tensor.NewRNG(cfg.Seed ^ 0x10ad0ada),
	}
	if !cfg.DisableRankAdapt {
		a.grads = newGradWindow(cfg.GradWindow, cfg.Dim)
	}
	return a, nil
}

// Rank returns the current LoRA rank k.
func (a *Adapter) Rank() int { return a.rows.rank }

// ActiveCount returns the number of ids holding a LoRA row.
func (a *Adapter) ActiveCount() int { return len(a.rows.meta) }

// Adaptations returns how many rank/prune passes have run.
func (a *Adapter) Adaptations() int { return a.adaptations }

// accumulate adds the id's LoRA delta scaled by alpha into dst.
func (a *Adapter) accumulate(id int32, alpha float64, dst []float64) {
	if slot := a.rows.find(id); slot >= 0 {
		tensor.AxpyRows(dst, alpha, a.rows.row(slot), a.b)
	}
}

// train consumes the gradient w.r.t. the pooled embedding of ids (the output
// of the dlrm backward pass) and performs one SGD step at rate lr on A and B,
// with the base weights frozen (paper §IV-A, step 1 of the update path).
// Ids without a row are allocated one (zero-initialized) if capacity allows.
// train writes the factors in place: a writer.
func (a *Adapter) train(ids []int32, grad []float64, lr float64) {
	if len(ids) == 0 {
		return
	}
	if len(grad) != a.cfg.Dim {
		panic(fmt.Sprintf("lora: grad len %d != dim %d", len(grad), a.cfg.Dim))
	}
	if a.grads != nil {
		a.grads.record(grad)
	}
	rs, rank := &a.rows, a.rows.rank
	invPool := 1 / float64(len(ids))

	// The A-row gradient dA[i] = (grad/pool)·Bᵀ does not depend on i (B only
	// moves after the loop), so the k dot products are hoisted out of the
	// per-id walk: O(rank·dim) once instead of per id. coef[k] accumulates the
	// pre-update A coefficients Σ_i A[i][k], which folds the dense dB matrix
	// into one Axpy per rank — the B update touches only the mini-batch's
	// contribution, SPMM-style, with no rank×dim accumulator to zero.
	if len(a.daScratch) < rank {
		a.daScratch = make([]float64, rank)
		a.coefScratch = make([]float64, rank)
	}
	da := a.daScratch[:rank]
	coef := a.coefScratch[:rank]
	// da[k] = (lr·invPool)·(B[k]·grad), the bits of lr*invPool*Dot(grad,
	// B[k]): MatVecInto sums each row in Dot's order, four rows at a time.
	tensor.MatVecInto(da, a.b, grad)
	step := lr * invPool
	for k := range da {
		da[k] = step * da[k]
	}
	clear(coef)
	for _, id := range ids {
		slot := rs.find(id)
		if slot < 0 {
			if slot = a.newRow(id); slot < 0 {
				continue // table at capacity; skip cold id
			}
		}
		rs.meta[slot].freq++
		rs.markDirty(slot)
		row := rs.row(slot)
		for k := range da {
			coef[k] += row[k] // pre-update value, as dB sees it
			row[k] -= da[k]
		}
	}
	for k := 0; k < rank; k++ {
		// dB[k] = coef[k] · grad/pool; apply the SGD step directly.
		if coef[k] != 0 {
			tensor.Axpy(-lr*coef[k]*invPool, grad, a.b.Row(k))
		}
	}

	a.iter++
	if a.iter%a.cfg.AdaptInterval == 0 {
		a.adapt()
	}
}

// newRow gives id, which has no row, a randomly initialized one and returns
// its slot, or -1 when the table is full. Random A with zero B keeps ∆W = 0
// until training moves B.
func (a *Adapter) newRow(id int32) int32 {
	rs := &a.rows
	if len(rs.meta) >= a.cfg.CMax {
		return -1
	}
	slot := rs.add(id)
	scale := 1 / math.Sqrt(float64(rs.rank))
	row := rs.row(slot)
	for k := range row {
		row[k] = a.rng.NormFloat64() * scale
	}
	return slot
}

// adapt runs Algorithm 1: PCA-driven rank adaptation followed by usage-based
// pruning with capacity clamping.
func (a *Adapter) adapt() {
	a.adaptations++

	// --- Rank adaptation (Alg. 1 line 3-4) ---
	if a.grads != nil && a.grads.count >= 2 {
		// r_t is read off the eigenvalues of the gradient window's d×d
		// covariance, merged from per-block moments (row order does not
		// matter to a covariance): each ring row enters the scatter once,
		// when its block fills, rather than GradWindow/AdaptInterval times,
		// and a pass is left with one fresh block, a merge per cached block
		// and the eigenvalue-only QL solve. Every block is summed fresh
		// from its rows, so nothing drifts the way a running rank-1 update
		// and downdate per Train would (a Welford-per-row variant flipped a
		// rank decision against the whole-window reference); the merge
		// moves the spectrum by rounding alone, and the decisions match
		// that reference (TestBlockMomentsMatchWholeWindow).
		rt := tensor.MinRankForVariance(a.grads.moments().Spectrum(&a.spectrum), a.cfg.Alpha)
		a.rankObsSum += rt
		a.rankObsCount++
		// New rank = ceil of the interval-averaged observation, clamped.
		r := (a.rankObsSum + a.rankObsCount - 1) / a.rankObsCount
		if r < a.cfg.MinRank {
			r = a.cfg.MinRank
		}
		if r > a.cfg.MaxRank {
			r = a.cfg.MaxRank
		}
		a.Resize(r)
	}

	// --- Usage-based pruning (Alg. 1 line 5-10) ---
	// Rows updated fewer than τ_prune times this window are evicted; of the
	// rest at most CMax stay, the most frequently updated. (The C_min floor
	// never binds: it cannot bring an evicted row back.)
	rs := &a.rows
	prunedBefore := a.pruned
	active := a.active[:0]
	for s := range rs.meta {
		if int(rs.meta[s].freq) >= a.cfg.PruneThresh {
			active = append(active, int32(s))
		} else {
			a.evict(int32(s))
		}
	}
	if len(active) > a.cfg.CMax {
		slices.SortFunc(active, func(x, y int32) int {
			mx, my := rs.meta[x], rs.meta[y]
			if mx.freq != my.freq {
				return int(my.freq) - int(mx.freq)
			}
			return int(mx.id) - int(my.id)
		})
		for _, s := range active[a.cfg.CMax:] {
			a.evict(s)
		}
	}
	a.active = active
	if a.pruned != prunedBefore {
		rs.compact()
	}
	for s := range rs.meta {
		rs.meta[s].freq = 0 // new frequency window
	}
}

// evict marks slot for removal by the compaction that ends adapt's pass,
// remembering the id as a ghost if it was in the support set.
func (a *Adapter) evict(slot int32) {
	m := &a.rows.meta[slot]
	if m.dirty && a.ghosts.find(m.id) < 0 {
		a.ghosts.insert(m.id, 0)
	}
	m.id = -1
	a.pruned++
}

// Resize changes the LoRA rank to r. Shrinking re-projects the current ∆W
// onto the best rank-r subspace (Eckart–Young, through the d×d Gram matrix of
// the active rows' deltas — tensor.TruncatedSVD), so learned information is
// preserved as well as any rank-r factorization can; growing zero-pads,
// leaving ∆W bit-identical. A writer, like train: every row keeps its slot,
// its update count and its support bit; only the coefficient slab (re-laid
// in place) and B are re-made.
func (a *Adapter) Resize(r int) {
	r = min(max(r, a.cfg.MinRank), a.cfg.MaxRank)
	old := a.rows.rank
	if r == old {
		return
	}
	if r > old {
		// Grow: zero B rows keep ∆W identical; the new A coordinates are
		// randomly initialized so gradients flow into the added capacity.
		// Ids are visited in sorted order: the draws come from one RNG
		// stream, so slot order — the order rows happened to be created in —
		// would tie the factors to the history of evictions.
		a.rows.setRank(r)
		scale := 1 / math.Sqrt(float64(r))
		a.byID = a.rows.slotsByID(a.byID)
		for _, s := range a.byID {
			row := a.rows.row(s)
			for k := old; k < r; k++ {
				row[k] = a.rng.NormFloat64() * scale
			}
		}
		a.b = adaptedB(r, a.cfg.Dim, a.b)
		return
	}
	// Shrink: factor the realized ∆W of the active rows (old slab, old B),
	// taken in id order so the Gram sums do not depend on slot order.
	// TruncatedSVD returns fewer than r components when fewer than r rows are
	// active; the factors are zero-padded to r then.
	right := tensor.NewMatrix(0, a.cfg.Dim)
	var slots []int32
	var left *tensor.Matrix
	if len(a.rows.meta) > 0 {
		a.byID = a.rows.slotsByID(a.byID)
		slots = a.byID
		delta := tensor.NewMatrix(len(slots), a.cfg.Dim)
		for i, s := range slots {
			tensor.AxpyRows(delta.Row(i), 1, a.rows.row(s), a.b)
		}
		left, right = tensor.TruncatedSVD(delta, r)
	}
	a.rows.setRank(r)
	for i, s := range slots {
		row := a.rows.row(s)
		clear(row[copy(row, left.Row(i)):])
	}
	if right.Rows != r {
		right = adaptedB(r, a.cfg.Dim, right)
	}
	a.b = right
}

// SizeBytes returns the adapter's parameter footprint: active A rows plus B.
func (a *Adapter) SizeBytes() int64 {
	rs := &a.rows
	return int64(len(rs.meta))*int64(rs.rank)*8 + int64(rs.rank)*int64(a.cfg.Dim)*8
}

// RowUpdate carries one modified A row for synchronization (Algorithm 3).
type RowUpdate struct {
	ID  int32
	Row []float64 // length = sender's rank
}

// resetSupport clears the modification tracker (end of a sync cycle).
func (a *Adapter) resetSupport() {
	rs := &a.rows
	if rs.dirty > 0 {
		for s := range rs.meta {
			rs.meta[s].dirty = false
		}
		rs.dirty = 0
	}
	a.ghosts.reset()
}

// adaptedB copies b (whose Cols is dim) into a rank×dim matrix, truncating or
// zero-padding rows.
func adaptedB(rank, dim int, b *tensor.Matrix) *tensor.Matrix {
	nb := tensor.NewMatrix(rank, dim)
	copy(nb.Data, b.Data)
	return nb
}

// applyState installs one merged TableState (rows plus shared B) in place —
// the per-adapter publish step of the sync pipeline, a writer. Each row lands
// in its id's slot, or in the next slot when the id has none; rows and a B
// whose rank differs from the adapter's are truncated or zero-padded. A new row starts with no updates this window and outside
// the local support set (it is foreign state) unless its id is a ghost. A
// nil B keeps the current factor. The caller has checked the state's shape
// (Set.applyState): B has dim columns and Rows·Cols values.
func (a *Adapter) applyState(ts TableState) {
	rs := &a.rows
	for _, u := range ts.Rows {
		slot := rs.find(u.ID)
		if slot < 0 {
			slot = rs.add(u.ID)
			if a.ghosts.find(u.ID) >= 0 {
				rs.markDirty(slot)
			}
		}
		row := rs.row(slot)
		clear(row[copy(row, u.Row):]) // copies min(len): truncates or zero-pads
	}
	if ts.B != nil {
		clear(a.b.Data[copy(a.b.Data, ts.B.Data):])
	}
}

// reset clears all LoRA state (after a full-parameter sync folds fresh base
// weights in, the adapter starts from ∆W = 0 again — paper Fig 8's hourly
// full-update starting points).
func (a *Adapter) reset() {
	rank := a.rows.rank
	a.b = tensor.NewMatrix(rank, a.cfg.Dim)
	a.rows = rowStore{rank: rank}
	a.ghosts.reset()
	if a.grads != nil {
		a.grads.reset()
	}
	a.rankObsSum = 0
	a.rankObsCount = 0
}
