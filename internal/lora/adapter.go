// Package lora implements the paper's core contribution: Low-Rank Adaptation
// tables for embedding updates (∆W = A·B, Eq. 3), with the two memory
// mechanisms of §IV-C — variance-aware dynamic rank adaptation and
// usage-based table pruning (Algorithm 1) — plus merge/export primitives for
// the cross-node sync protocol (Algorithm 3).
//
// # Concurrency model
//
// An Adapter keeps its published factors (rank, A rows, shared B) behind one
// atomic pointer to an immutable-by-readers state record. Two classes of
// callers exist:
//
//   - The owner (the training/serving loop, serialized by core.System's
//     mutex) may call anything. Train mutates the current state in place —
//     it is NOT safe concurrently with readers.
//   - The publish path — ApplyRows, SetB, Resize, Reset, and Set.Publish —
//     builds a fresh state copy and swaps the pointer in one atomic store.
//     Lock-free readers (Lookup, Accumulate, Delta, Has, EffectiveRow,
//     ExportSupport's row reads) therefore observe either the old or the new
//     state, never a torn mix, and never block on an in-flight merge. This is
//     the copy-on-write half of the asynchronous update pipeline.
package lora

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"liveupdate/internal/tensor"
)

// Config controls adapter behaviour. Defaults follow the paper: α = 0.8,
// adaptation every 128 iterations, initial capacity 10% of |V|, C_min = |V|/50.
type Config struct {
	Dim           int     // embedding dimension d
	InitialRank   int     // starting k (paper observes 3-6 typical)
	MinRank       int     // lower clamp for adapted rank
	MaxRank       int     // upper clamp (≤ d)
	Alpha         float64 // variance threshold α for Eq. 2
	AdaptInterval int     // iterations between rank/prune passes (paper: 128)
	PruneThresh   int     // τ_prune: min updates per window to stay active
	CMin          int     // minimum LoRA table capacity
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
	cmin := rows / 50
	if cmin < 1 {
		cmin = 1
	}
	return Config{
		Dim:           dim,
		InitialRank:   4,
		MinRank:       1,
		MaxRank:       dim,
		Alpha:         0.8,
		AdaptInterval: 128,
		PruneThresh:   1,
		CMin:          cmin,
		CMax:          rows,
		GradWindow:    256,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Dim <= 0:
		return fmt.Errorf("lora: Dim must be positive")
	case c.InitialRank <= 0 || c.InitialRank > c.Dim:
		return fmt.Errorf("lora: InitialRank %d out of (0,%d]", c.InitialRank, c.Dim)
	case c.MinRank <= 0 || c.MinRank > c.MaxRank:
		return fmt.Errorf("lora: rank bounds [%d,%d] invalid", c.MinRank, c.MaxRank)
	case c.MaxRank > c.Dim:
		return fmt.Errorf("lora: MaxRank %d exceeds Dim %d", c.MaxRank, c.Dim)
	case c.Alpha <= 0 || c.Alpha > 1:
		return fmt.Errorf("lora: Alpha must be in (0,1]")
	case c.AdaptInterval <= 0:
		return fmt.Errorf("lora: AdaptInterval must be positive")
	case c.CMin <= 0 || c.CMin > c.CMax:
		return fmt.Errorf("lora: capacity bounds [%d,%d] invalid", c.CMin, c.CMax)
	case c.GradWindow <= 0:
		return fmt.Errorf("lora: GradWindow must be positive")
	}
	return nil
}

// adapterState is the published factor state: the LoRA rank, the shared
// dense factor B (rank×dim), and the sparse A rows for active ids. Publish
// operations replace the whole record behind the Adapter's atomic pointer;
// readers load it once per call and see a consistent snapshot.
type adapterState struct {
	rank int
	b    *tensor.Matrix      // rank×dim
	rows map[int32][]float64 // A rows for active ids
}

// Adapter is the LoRA table for one embedding table: sparse rows A[i] ∈ R^k
// for active indices plus a shared dense factor B ∈ R^{k×d}. See the package
// comment for which operations are safe without the owner's serialization.
type Adapter struct {
	cfg Config
	cur atomic.Pointer[adapterState]

	// Owner-only bookkeeping (training statistics, adaptation windows).
	freq map[int32]int      // per-id update count in the current window
	supp map[int32]struct{} // ids updated since last ResetSupport (Alg. 3)

	iter      int
	gradBuf   *tensor.Matrix // ring of recent pooled gradients (GradWindow×dim)
	gradCount int            // rows filled (≤ GradWindow)
	gradNext  int

	rankObsSum   int // Σ r_t within the adaptation interval
	rankObsCount int

	adaptations int // completed rank/prune passes
	pruned      int // total rows evicted

	// adapt's reusable buffers (covariance spectrum of the gradient window,
	// candidate ids of the prune step): a pass that neither changes the rank
	// nor evicts past capacity allocates nothing.
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

// NewAdapter builds an adapter using the standard LoRA initialization:
// B starts at zero and A rows are drawn randomly on allocation, so ∆W = AB
// is exactly zero at first (serving matches the base table) while gradients
// can still flow into B.
func NewAdapter(cfg Config) (*Adapter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &Adapter{
		cfg:     cfg,
		freq:    make(map[int32]int),
		supp:    make(map[int32]struct{}),
		gradBuf: tensor.NewMatrix(cfg.GradWindow, cfg.Dim),
		rng:     tensor.NewRNG(cfg.Seed ^ 0x10ad0ada),
	}
	a.cur.Store(&adapterState{
		rank: cfg.InitialRank,
		b:    tensor.NewMatrix(cfg.InitialRank, cfg.Dim),
		rows: make(map[int32][]float64),
	})
	return a, nil
}

// MustNewAdapter panics on config errors; for tests and examples.
func MustNewAdapter(cfg Config) *Adapter {
	a, err := NewAdapter(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// Rank returns the current LoRA rank k.
func (a *Adapter) Rank() int { return a.cur.Load().rank }

// ActiveCount returns the number of ids holding a LoRA row.
func (a *Adapter) ActiveCount() int { return len(a.cur.Load().rows) }

// Has reports whether id has a LoRA row — the serving path's Hot Index
// Filter check (paper Fig 7 step 2).
func (a *Adapter) Has(id int32) bool {
	_, ok := a.cur.Load().rows[id]
	return ok
}

// Adaptations returns how many rank/prune passes have run.
func (a *Adapter) Adaptations() int { return a.adaptations }

// PrunedTotal returns the cumulative number of evicted rows.
func (a *Adapter) PrunedTotal() int { return a.pruned }

// Delta writes W_lora(id) - W_base(id) = A[id]·B into dst (len Dim). Ids
// without a LoRA row contribute zero.
func (a *Adapter) Delta(id int32, dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
	st := a.cur.Load()
	row, ok := st.rows[id]
	if !ok {
		return
	}
	for k, av := range row {
		if av == 0 {
			continue
		}
		tensor.Axpy(av, st.b.Row(k), dst)
	}
}

// Accumulate adds the id's LoRA delta scaled by alpha into dst.
func (a *Adapter) Accumulate(id int32, alpha float64, dst []float64) {
	st := a.cur.Load()
	row, ok := st.rows[id]
	if !ok {
		return
	}
	for k, av := range row {
		if av == 0 {
			continue
		}
		tensor.Axpy(alpha*av, st.b.Row(k), dst)
	}
}

// Train consumes the gradient w.r.t. the pooled embedding of ids (the output
// of dlrm.Model.Backward) and performs one SGD step at rate lr on A and B,
// with the base weights frozen (paper §IV-A, step 1 of the update path).
// Ids without a row are allocated one (zero-initialized) if capacity allows.
// Train mutates the current state in place and is owner-only: it must be
// serialized with every other call on this adapter.
func (a *Adapter) Train(ids []int32, grad []float64, lr float64) {
	if len(ids) == 0 {
		return
	}
	if len(grad) != a.cfg.Dim {
		panic(fmt.Sprintf("lora: grad len %d != dim %d", len(grad), a.cfg.Dim))
	}
	a.recordGrad(grad)
	st := a.cur.Load()
	invPool := 1 / float64(len(ids))

	// The A-row gradient dA[i] = (grad/pool)·Bᵀ does not depend on i (B only
	// moves after the loop), so the k dot products are hoisted out of the
	// per-id walk: O(rank·dim) once instead of per id. coef[k] accumulates the
	// pre-update A coefficients Σ_i A[i][k], which folds the dense dB matrix
	// into one Axpy per rank — the B update touches only the mini-batch's
	// contribution, SPMM-style, with no rank×dim accumulator to zero.
	if len(a.daScratch) < st.rank {
		a.daScratch = make([]float64, st.rank)
		a.coefScratch = make([]float64, st.rank)
	}
	da := a.daScratch[:st.rank]
	coef := a.coefScratch[:st.rank]
	for k := 0; k < st.rank; k++ {
		da[k] = lr * invPool * tensor.Dot(grad, st.b.Row(k))
		coef[k] = 0
	}
	for _, id := range ids {
		row := a.ensureRow(st, id)
		if row == nil {
			continue // table at capacity; skip cold id
		}
		a.freq[id]++
		a.supp[id] = struct{}{}
		for k := 0; k < st.rank; k++ {
			coef[k] += row[k] // pre-update value, as dB sees it
			row[k] -= da[k]
		}
	}
	for k := 0; k < st.rank; k++ {
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

// ensureRow returns the A row for id in st, allocating a randomly initialized
// row when capacity allows; it returns nil when the table is full and id is
// not resident. Random A with zero B keeps ∆W = 0 until training moves B.
func (a *Adapter) ensureRow(st *adapterState, id int32) []float64 {
	if row, ok := st.rows[id]; ok {
		return row
	}
	if len(st.rows) >= a.cfg.CMax {
		return nil
	}
	row := make([]float64, st.rank)
	scale := 1 / math.Sqrt(float64(st.rank))
	for k := range row {
		row[k] = a.rng.NormFloat64() * scale
	}
	st.rows[id] = row
	return row
}

// recordGrad appends a gradient snapshot to the PCA ring buffer and updates
// the per-interval observed-rank statistics (r_t of §IV-C).
func (a *Adapter) recordGrad(grad []float64) {
	copy(a.gradBuf.Row(a.gradNext), grad)
	a.gradNext = (a.gradNext + 1) % a.cfg.GradWindow
	if a.gradCount < a.cfg.GradWindow {
		a.gradCount++
	}
}

// adapt runs Algorithm 1: PCA-driven rank adaptation followed by usage-based
// pruning with capacity clamping.
func (a *Adapter) adapt() {
	a.adaptations++

	// --- Rank adaptation (Alg. 1 line 3-4) ---
	if !a.cfg.DisableRankAdapt && a.gradCount >= 2 {
		// r_t is read off the eigenvalues of the gradient window's d×d
		// covariance, computed straight from the ring (row order does not
		// matter to a covariance). The covariance is recomputed each pass,
		// not maintained by a rank-1 update and downdate per Train: at
		// GradWindow 256 / AdaptInterval 128 that costs the same d²
		// multiply-adds per step as recomputing, and its running sums would
		// accumulate rounding drift that a fresh sum does not have.
		window := tensor.Matrix{Rows: a.gradCount, Cols: a.cfg.Dim, Data: a.gradBuf.Data[:a.gradCount*a.cfg.Dim]}
		rt := tensor.MinRankForVariance(tensor.CovarianceSpectrum(&window, &a.spectrum), a.cfg.Alpha)
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
	st := a.cur.Load()
	active := a.active[:0]
	for id := range st.rows {
		if a.freq[id] >= a.cfg.PruneThresh {
			active = append(active, id)
		} else {
			delete(st.rows, id)
			a.pruned++
		}
	}
	if len(active) > a.cfg.CMax {
		slices.SortFunc(active, func(x, y int32) int {
			if fx, fy := a.freq[x], a.freq[y]; fx != fy {
				return fy - fx
			}
			return int(x) - int(y)
		})
		for _, id := range active[a.cfg.CMax:] {
			delete(st.rows, id)
			a.pruned++
		}
	}
	a.active = active
	clear(a.freq) // new frequency window
}

// Resize changes the LoRA rank to r. Shrinking re-projects the current ∆W
// onto the best rank-r subspace (Eckart–Young, through the d×d Gram matrix of
// the active rows' deltas — tensor.TruncatedSVD), so learned information is
// preserved as well as any rank-r factorization can; growing zero-pads,
// leaving ∆W bit-identical. The resized factors are installed by
// one atomic swap (publish-path operation).
func (a *Adapter) Resize(r int) {
	st := a.cur.Load()
	if r == st.rank {
		return
	}
	if r < a.cfg.MinRank {
		r = a.cfg.MinRank
	}
	if r > a.cfg.MaxRank {
		r = a.cfg.MaxRank
	}
	if r == st.rank {
		return
	}
	if r > st.rank {
		// Grow: zero B rows keep ∆W identical; the new A coordinates are
		// randomly initialized so gradients flow into the added capacity.
		newB := tensor.NewMatrix(r, a.cfg.Dim)
		copy(newB.Data, st.b.Data)
		// Ids are visited in sorted order: the draws come from one RNG
		// stream, so map order would make the factors — and everything
		// trained on them — differ between two runs of the same seed.
		scale := 1 / math.Sqrt(float64(r))
		rows := make(map[int32][]float64, len(st.rows))
		for _, id := range sortedIDs(st.rows) {
			row := st.rows[id]
			nr := make([]float64, r)
			copy(nr, row)
			for k := len(row); k < r; k++ {
				nr[k] = a.rng.NormFloat64() * scale
			}
			rows[id] = nr
		}
		a.cur.Store(&adapterState{rank: r, b: newB, rows: rows})
		return
	}
	// Shrink: factor the realized ∆W of the active rows.
	if len(st.rows) == 0 {
		a.cur.Store(&adapterState{
			rank: r,
			b:    tensor.NewMatrix(r, a.cfg.Dim),
			rows: make(map[int32][]float64),
		})
		return
	}
	ids := sortedIDs(st.rows)
	delta := tensor.NewMatrix(len(ids), a.cfg.Dim)
	for i, id := range ids {
		a.Delta(id, delta.Row(i))
	}
	left, right := tensor.TruncatedSVD(delta, r)
	rows := make(map[int32][]float64, len(ids))
	for i, id := range ids {
		rows[id] = append([]float64(nil), left.Row(i)...)
	}
	a.cur.Store(&adapterState{rank: r, b: right, rows: rows})
}

// sortedIDs returns the ids holding a row, ascending.
func sortedIDs(rows map[int32][]float64) []int32 {
	ids := make([]int32, 0, len(rows))
	for id := range rows {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// SizeBytes returns the adapter's parameter footprint: active A rows plus B.
func (a *Adapter) SizeBytes() int64 {
	st := a.cur.Load()
	return int64(len(st.rows))*int64(st.rank)*8 + int64(st.rank)*int64(a.cfg.Dim)*8
}

// RowUpdate carries one modified A row for synchronization (Algorithm 3).
type RowUpdate struct {
	ID  int32
	Row []float64 // length = sender's rank
}

// ExportSupport snapshots the A rows modified since the last ResetSupport —
// supp(∆θ) in Algorithm 3 — without clearing the support set. The returned
// rows are deep copies, so the export stays valid (and immutable) while the
// adapter keeps training.
func (a *Adapter) ExportSupport() []RowUpdate {
	st := a.cur.Load()
	out := make([]RowUpdate, 0, len(a.supp))
	for id := range a.supp {
		row, ok := st.rows[id]
		if !ok {
			continue // pruned since modification
		}
		out = append(out, RowUpdate{ID: id, Row: append([]float64(nil), row...)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ExportAllRows snapshots every active A row — not just the modified
// support — as deep copies in id order: the full-state payload a joining
// replica restores during fleet catch-up. The support set is untouched.
func (a *Adapter) ExportAllRows() []RowUpdate {
	st := a.cur.Load()
	out := make([]RowUpdate, 0, len(st.rows))
	for id, row := range st.rows {
		out = append(out, RowUpdate{ID: id, Row: append([]float64(nil), row...)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SupportSize returns |S_r|, the number of ids modified since ResetSupport.
func (a *Adapter) SupportSize() int { return len(a.supp) }

// ResetSupport clears the modification tracker (end of a sync cycle).
func (a *Adapter) ResetSupport() { a.supp = make(map[int32]struct{}) }

// ApplyRows installs remote A rows (receiving side of a sync). Rows whose
// length differs from the current rank are adapted: truncated or zero-padded.
// Applied rows do not enter the local support set (they are foreign state).
// The update is copy-on-write: a fresh row map is built and swapped in one
// atomic store, so concurrent lock-free readers never see a torn state.
func (a *Adapter) ApplyRows(updates []RowUpdate) {
	st := a.cur.Load()
	a.cur.Store(&adapterState{
		rank: st.rank,
		b:    st.b,
		rows: rowsWithUpdates(st, updates),
	})
}

// rowsWithUpdates clones st's row map and installs updates at st's rank.
func rowsWithUpdates(st *adapterState, updates []RowUpdate) map[int32][]float64 {
	rows := make(map[int32][]float64, len(st.rows)+len(updates))
	for id, row := range st.rows {
		rows[id] = row
	}
	for _, u := range updates {
		row := make([]float64, st.rank)
		copy(row, u.Row) // copies min(len) — truncation/padding implicit
		rows[u.ID] = row
	}
	return rows
}

// SetB overwrites the shared factor B from a synced copy. The incoming
// matrix is rank'×d; rank mismatches are adapted by truncate/zero-pad.
// Copy-on-write: the new B is installed by one atomic swap.
func (a *Adapter) SetB(b *tensor.Matrix) {
	st := a.cur.Load()
	a.cur.Store(&adapterState{
		rank: st.rank,
		b:    adaptedB(st.rank, a.cfg.Dim, b),
		rows: st.rows,
	})
}

// adaptedB copies b into a rank×dim matrix, truncating or zero-padding rows.
func adaptedB(rank, dim int, b *tensor.Matrix) *tensor.Matrix {
	if b.Cols != dim {
		panic(fmt.Sprintf("lora: SetB dim %d != %d", b.Cols, dim))
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
// A nil B keeps the current factor.
func (a *Adapter) applyState(ts TableState) {
	st := a.cur.Load()
	b := st.b
	if ts.B != nil {
		b = adaptedB(st.rank, a.cfg.Dim, ts.B)
	}
	a.cur.Store(&adapterState{
		rank: st.rank,
		b:    b,
		rows: rowsWithUpdates(st, ts.Rows),
	})
}

// B returns a copy of the shared factor for synchronization.
func (a *Adapter) B() *tensor.Matrix { return a.cur.Load().b.Clone() }

// Reset clears all LoRA state (after a full-parameter sync folds fresh base
// weights in, the adapter starts from ∆W = 0 again — paper Fig 8's hourly
// full-update starting points).
func (a *Adapter) Reset() {
	rank := a.cur.Load().rank
	a.cur.Store(&adapterState{
		rank: rank,
		b:    tensor.NewMatrix(rank, a.cfg.Dim),
		rows: make(map[int32][]float64),
	})
	a.freq = make(map[int32]int)
	a.supp = make(map[int32]struct{})
	a.gradCount = 0
	a.gradNext = 0
	a.rankObsSum = 0
	a.rankObsCount = 0
}
