// Package lora implements the paper's core contribution: Low-Rank Adaptation
// tables for embedding updates (∆W = A·B, Eq. 3), with the two memory
// mechanisms of §IV-C — variance-aware dynamic rank adaptation and
// usage-based table pruning (Algorithm 1) — plus merge/export primitives for
// the cross-node sync protocol (Algorithm 3).
//
// # Storage and concurrency model
//
// An Adapter keeps its published factors behind one atomic pointer to a state
// record: the shared dense B and a row store for the sparse A. The store is
// flat — one slab of slots×rank coefficients, one per-slot array of ids and
// bookkeeping, one open-addressed id → slot index — so a lookup is one probe,
// a new row takes the next slab slot instead of a heap object, and a copy is
// three memmoves whatever the row count. Three classes of callers exist:
//
//   - Lock-free readers (Set.Lookup, EffectiveRow, accumulate, Rank)
//     load the pointer once and touch only that state's index, slab and B.
//   - The publish path — Resize, reset and Set.Publish —
//     never writes a published store. It clones it (index, per-slot array
//     and slab, bookkeeping included), edits the clone and swaps the pointer
//     in one atomic store, so a concurrent reader sees the old state or the
//     new one, never a torn mix, and never blocks on an in-flight merge.
//     Publish-path calls must be serialized with each other and with the
//     owner (core.System's mutex does that).
//   - The owner (the training loop, which additionally excludes readers)
//     may call anything. train writes the current store in place: A
//     coefficients, new rows — which may move the slab and the index to
//     larger arrays — and, every AdaptInterval steps, adapt's pruning. The
//     per-slot update counts and support bits, and the Adapter's fields
//     outside the state record, are owner-only as well (Snapshot and
//     resetSupport clear the support bits of the current store in place;
//     readers never look at them).
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
	"sync/atomic"

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

// adapterState is the published factor state: the shared dense factor B
// (rank×dim) and the sparse A rows of the active ids, at the same rank.
// Publish operations replace the whole record behind the Adapter's atomic
// pointer; readers load it once per call and see a consistent snapshot.
type adapterState struct {
	b    *tensor.Matrix // rank×dim
	rows *rowStore      // A rows for active ids; rows.rank is the LoRA rank
}

// accumulate adds alpha times the delta of the row in slot, A[slot]·B, into
// dst.
func (st *adapterState) accumulate(slot int32, alpha float64, dst []float64) {
	tensor.AxpyRows(dst, alpha, st.rows.row(slot), st.b)
}

// Adapter is the LoRA table for one embedding table: sparse rows A[i] ∈ R^k
// for active indices plus a shared dense factor B ∈ R^{k×d}. See the package
// comment for which operations are safe without the owner's serialization.
type Adapter struct {
	cfg Config
	cur atomic.Pointer[adapterState]

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
	// candidate slots of the prune step): a pass that does not change the
	// rank allocates nothing.
	spectrum tensor.SpectrumScratch
	active   []int32

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
		cfg: cfg,
		rng: tensor.NewRNG(cfg.Seed ^ 0x10ad0ada),
	}
	if !cfg.DisableRankAdapt {
		a.grads = newGradWindow(cfg.GradWindow, cfg.Dim)
	}
	a.cur.Store(&adapterState{
		b:    tensor.NewMatrix(cfg.InitialRank, cfg.Dim),
		rows: newRowStore(cfg.InitialRank),
	})
	return a, nil
}

// Rank returns the current LoRA rank k.
func (a *Adapter) Rank() int { return a.cur.Load().rows.rank }

// ActiveCount returns the number of ids holding a LoRA row.
func (a *Adapter) ActiveCount() int { return len(a.cur.Load().rows.meta) }

// Adaptations returns how many rank/prune passes have run.
func (a *Adapter) Adaptations() int { return a.adaptations }

// accumulate adds the id's LoRA delta scaled by alpha into dst.
func (a *Adapter) accumulate(id int32, alpha float64, dst []float64) {
	st := a.cur.Load()
	if slot := st.rows.find(id); slot >= 0 {
		st.accumulate(slot, alpha, dst)
	}
}

// train consumes the gradient w.r.t. the pooled embedding of ids (the output
// of the dlrm backward pass) and performs one SGD step at rate lr on A and B,
// with the base weights frozen (paper §IV-A, step 1 of the update path).
// Ids without a row are allocated one (zero-initialized) if capacity allows.
// train mutates the current state in place and is owner-only: it must be
// serialized with every other call on this adapter.
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
	st := a.cur.Load()
	rs, rank := st.rows, st.rows.rank
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
	tensor.MatVecInto(da, st.b, grad)
	step := lr * invPool
	for k := range da {
		da[k] = step * da[k]
	}
	clear(coef)
	for _, id := range ids {
		slot := rs.find(id)
		if slot < 0 {
			if slot = a.newRow(rs, id); slot < 0 {
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
			tensor.Axpy(-lr*coef[k]*invPool, grad, st.b.Row(k))
		}
	}

	a.iter++
	if a.iter%a.cfg.AdaptInterval == 0 {
		a.adapt()
	}
}

// newRow gives id, which has no row in rs, a randomly initialized one and
// returns its slot, or -1 when the table is full. Random A with zero B keeps
// ∆W = 0 until training moves B.
func (a *Adapter) newRow(rs *rowStore, id int32) int32 {
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
	rs := a.cur.Load().rows
	prunedBefore := a.pruned
	active := a.active[:0]
	for s := range rs.meta {
		if int(rs.meta[s].freq) >= a.cfg.PruneThresh {
			active = append(active, int32(s))
		} else {
			a.evict(rs, int32(s))
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
			a.evict(rs, s)
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
func (a *Adapter) evict(rs *rowStore, slot int32) {
	m := &rs.meta[slot]
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
// leaving ∆W bit-identical. The resized factors are installed by
// one atomic swap (publish-path operation).
func (a *Adapter) Resize(r int) {
	st := a.cur.Load()
	r = min(max(r, a.cfg.MinRank), a.cfg.MaxRank)
	if r == st.rows.rank {
		return
	}
	// Either way every row keeps its slot, its update count and its support
	// bit; only the coefficients are re-made.
	rows := st.rows.clone(r, 0)
	if r > st.rows.rank {
		// Grow: zero B rows keep ∆W identical; the new A coordinates are
		// randomly initialized so gradients flow into the added capacity.
		// Ids are visited in sorted order: the draws come from one RNG
		// stream, so slot order — the order rows happened to be created in —
		// would tie the factors to the history of evictions.
		scale := 1 / math.Sqrt(float64(r))
		for _, s := range rows.slotsByID() {
			row := rows.row(s)
			for k := st.rows.rank; k < r; k++ {
				row[k] = a.rng.NormFloat64() * scale
			}
		}
		a.cur.Store(&adapterState{b: adaptedB(r, a.cfg.Dim, st.b), rows: rows})
		return
	}
	// Shrink: factor the realized ∆W of the active rows, taken in id order so
	// the Gram sums do not depend on slot order. TruncatedSVD returns fewer
	// than r components when fewer than r rows are active; the factors are
	// zero-padded to r then.
	right := tensor.NewMatrix(0, a.cfg.Dim)
	if len(rows.meta) > 0 {
		slots := rows.slotsByID()
		delta := tensor.NewMatrix(len(slots), a.cfg.Dim)
		for i, s := range slots {
			st.accumulate(s, 1, delta.Row(i))
		}
		var left *tensor.Matrix
		left, right = tensor.TruncatedSVD(delta, r)
		for i, s := range slots {
			row := rows.row(s)
			clear(row[copy(row, left.Row(i)):])
		}
	}
	if right.Rows != r {
		right = adaptedB(r, a.cfg.Dim, right)
	}
	a.cur.Store(&adapterState{b: right, rows: rows})
}

// SizeBytes returns the adapter's parameter footprint: active A rows plus B.
func (a *Adapter) SizeBytes() int64 {
	rs := a.cur.Load().rows
	return int64(len(rs.meta))*int64(rs.rank)*8 + int64(rs.rank)*int64(a.cfg.Dim)*8
}

// RowUpdate carries one modified A row for synchronization (Algorithm 3).
type RowUpdate struct {
	ID  int32
	Row []float64 // length = sender's rank
}

// exportSupport snapshots the A rows modified since the last resetSupport —
// supp(∆θ) in Algorithm 3 — without clearing the support set. The returned
// rows are deep copies, so the export stays valid (and immutable) while the
// adapter keeps training; they share one backing array. Rows pruned since
// their modification are not exported.
func (a *Adapter) exportSupport() []RowUpdate { return a.cur.Load().rows.export(true) }

// exportAllRows snapshots every active A row — not just the modified
// support — as deep copies in id order: the full-state payload a joining
// replica restores during fleet catch-up. The support set is untouched.
func (a *Adapter) exportAllRows() []RowUpdate { return a.cur.Load().rows.export(false) }

// resetSupport clears the modification tracker (end of a sync cycle).
func (a *Adapter) resetSupport() {
	rs := a.cur.Load().rows
	if rs.dirty > 0 {
		for s := range rs.meta {
			rs.meta[s].dirty = false
		}
		rs.dirty = 0
	}
	a.ghosts.reset()
}

// rowsWithUpdates clones rs and installs updates at its rank. A new row
// starts with no updates this window and outside the support set, unless its
// id is a ghost.
func (a *Adapter) rowsWithUpdates(rs *rowStore, updates []RowUpdate) *rowStore {
	rows := rs.clone(rs.rank, len(updates))
	for _, u := range updates {
		slot := rows.find(u.ID)
		if slot < 0 {
			slot = rows.add(u.ID)
			if a.ghosts.find(u.ID) >= 0 {
				rows.markDirty(slot)
			}
		}
		row := rows.row(slot)
		clear(row[copy(row, u.Row):]) // copies min(len): truncates or zero-pads
	}
	return rows
}

// adaptedB copies b into a rank×dim matrix, truncating or zero-padding rows.
func adaptedB(rank, dim int, b *tensor.Matrix) *tensor.Matrix {
	if b.Cols != dim {
		panic(fmt.Sprintf("lora: B dim %d != %d", b.Cols, dim))
	}
	nb := tensor.NewMatrix(rank, dim)
	n := rank
	if b.Rows < n {
		n = b.Rows
	}
	copy(nb.Data, b.Data[:n*dim])
	return nb
}

// applyState installs one merged TableState (rows plus shared B) in a single
// atomic swap — the per-adapter publish step of the versioned sync pipeline.
// Rows and B whose rank differs from the adapter's are truncated or
// zero-padded; the rows do not enter the local support set (they are foreign
// state) unless their id is a ghost. A nil B keeps the current factor.
func (a *Adapter) applyState(ts TableState) {
	st := a.cur.Load()
	b := st.b
	if ts.B != nil {
		b = adaptedB(st.rows.rank, a.cfg.Dim, ts.B)
	}
	a.cur.Store(&adapterState{b: b, rows: a.rowsWithUpdates(st.rows, ts.Rows)})
}

// copyB returns a copy of the shared factor for synchronization.
func (a *Adapter) copyB() *tensor.Matrix { return a.cur.Load().b.Clone() }

// reset clears all LoRA state (after a full-parameter sync folds fresh base
// weights in, the adapter starts from ∆W = 0 again — paper Fig 8's hourly
// full-update starting points).
func (a *Adapter) reset() {
	rank := a.cur.Load().rows.rank
	a.cur.Store(&adapterState{
		b:    tensor.NewMatrix(rank, a.cfg.Dim),
		rows: newRowStore(rank),
	})
	a.ghosts.reset()
	if a.grads != nil {
		a.grads.reset()
	}
	a.rankObsSum = 0
	a.rankObsCount = 0
}
