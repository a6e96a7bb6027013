package lora

import (
	"math"
	"slices"

	"liveupdate/internal/tensor"
)

// refAdapter is the adapter as it was before the flat row store: A rows in a
// Go map of heap slices, the update counts and the support set in two more
// maps keyed by id. It survives as the oracle of TestStoreMatchesMapReference
// — same arithmetic, same RNG draw order, the obvious data structure. Its one
// departure from the original: a shrink that finds fewer active rows than the
// target rank zero-pads the factors instead of installing short ones.
type refAdapter struct {
	cfg  Config
	rank int
	b    *tensor.Matrix
	rows map[int32][]float64
	freq map[int32]int
	supp map[int32]struct{}

	iter                     int
	gradBuf                  *tensor.Matrix
	gradCount, gradNext      int
	rankObsSum, rankObsCount int
	adaptations, pruned      int
	spectrum                 tensor.SpectrumScratch
	rng                      *tensor.RNG
}

func newRefAdapter(cfg Config) *refAdapter {
	return &refAdapter{
		cfg:     cfg,
		rank:    cfg.InitialRank,
		b:       tensor.NewMatrix(cfg.InitialRank, cfg.Dim),
		rows:    make(map[int32][]float64),
		freq:    make(map[int32]int),
		supp:    make(map[int32]struct{}),
		gradBuf: tensor.NewMatrix(cfg.GradWindow, cfg.Dim),
		rng:     tensor.NewRNG(cfg.Seed ^ 0x10ad0ada),
	}
}

func (a *refAdapter) delta(id int32, dst []float64) {
	clear(dst)
	for k, av := range a.rows[id] {
		if av != 0 {
			tensor.Axpy(av, a.b.Row(k), dst)
		}
	}
}

func (a *refAdapter) train(ids []int32, grad []float64, lr float64) {
	if len(ids) == 0 {
		return
	}
	copy(a.gradBuf.Row(a.gradNext), grad)
	a.gradNext = (a.gradNext + 1) % a.cfg.GradWindow
	a.gradCount = min(a.gradCount+1, a.cfg.GradWindow)
	invPool := 1 / float64(len(ids))
	da, coef := make([]float64, a.rank), make([]float64, a.rank)
	for k := range da {
		da[k] = lr * invPool * tensor.Dot(grad, a.b.Row(k))
	}
	for _, id := range ids {
		row, ok := a.rows[id]
		if !ok {
			if len(a.rows) >= a.cfg.CMax {
				continue
			}
			row = make([]float64, a.rank)
			scale := 1 / math.Sqrt(float64(a.rank))
			for k := range row {
				row[k] = a.rng.NormFloat64() * scale
			}
			a.rows[id] = row
		}
		a.freq[id]++
		a.supp[id] = struct{}{}
		for k := range row {
			coef[k] += row[k]
			row[k] -= da[k]
		}
	}
	for k := range coef {
		if coef[k] != 0 {
			tensor.Axpy(-lr*coef[k]*invPool, grad, a.b.Row(k))
		}
	}
	a.iter++
	if a.iter%a.cfg.AdaptInterval == 0 {
		a.adapt()
	}
}

func (a *refAdapter) adapt() {
	a.adaptations++
	if !a.cfg.DisableRankAdapt && a.gradCount >= 2 {
		window := tensor.Matrix{Rows: a.gradCount, Cols: a.cfg.Dim, Data: a.gradBuf.Data[:a.gradCount*a.cfg.Dim]}
		a.rankObsSum += tensor.MinRankForVariance(tensor.CovarianceSpectrum(&window, &a.spectrum), a.cfg.Alpha)
		a.rankObsCount++
		a.resize((a.rankObsSum + a.rankObsCount - 1) / a.rankObsCount)
	}
	var active []int32
	for id := range a.rows {
		if a.freq[id] >= a.cfg.PruneThresh {
			active = append(active, id)
		} else {
			delete(a.rows, id)
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
			delete(a.rows, id)
			a.pruned++
		}
	}
	clear(a.freq)
}

func (a *refAdapter) sortedIDs() []int32 {
	ids := make([]int32, 0, len(a.rows))
	for id := range a.rows {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func (a *refAdapter) resize(r int) {
	r = min(max(r, a.cfg.MinRank), a.cfg.MaxRank)
	if r == a.rank {
		return
	}
	ids := a.sortedIDs()
	if r > a.rank {
		scale := 1 / math.Sqrt(float64(r))
		for _, id := range ids {
			row := a.rows[id]
			nr := make([]float64, r)
			copy(nr, row)
			for k := len(row); k < r; k++ {
				nr[k] = a.rng.NormFloat64() * scale
			}
			a.rows[id] = nr
		}
		a.b, a.rank = adaptedB(r, a.cfg.Dim, a.b), r
		return
	}
	delta := tensor.NewMatrix(len(ids), a.cfg.Dim)
	for i, id := range ids {
		a.delta(id, delta.Row(i))
	}
	left, right := tensor.TruncatedSVD(delta, r)
	for i, id := range ids {
		nr := make([]float64, r)
		copy(nr, left.Row(i))
		a.rows[id] = nr
	}
	a.b, a.rank = adaptedB(r, a.cfg.Dim, right), r
}

func (a *refAdapter) export(supportOnly bool) []RowUpdate {
	out := []RowUpdate{}
	for _, id := range a.sortedIDs() {
		if _, ok := a.supp[id]; ok || !supportOnly {
			out = append(out, RowUpdate{ID: id, Row: slices.Clone(a.rows[id])})
		}
	}
	return out
}

func (a *refAdapter) resetSupport() { clear(a.supp) }

func (a *refAdapter) applyState(ts TableState) {
	if ts.B != nil {
		a.b = adaptedB(a.rank, a.cfg.Dim, ts.B)
	}
	for _, u := range ts.Rows {
		row := make([]float64, a.rank)
		copy(row, u.Row)
		a.rows[u.ID] = row
	}
}

func (a *refAdapter) reset() {
	a.b = tensor.NewMatrix(a.rank, a.cfg.Dim)
	clear(a.rows)
	clear(a.freq)
	clear(a.supp)
	a.gradCount, a.gradNext, a.rankObsSum, a.rankObsCount = 0, 0, 0, 0
}

func (a *refAdapter) sizeBytes() int64 {
	return int64(len(a.rows))*int64(a.rank)*8 + int64(a.rank)*int64(a.cfg.Dim)*8
}
