package lora

import "liveupdate/internal/tensor"

// gradBlock is the number of ring slots one cached set of moments covers
// (the last block is short when GradWindow is not a multiple). A pass pays
// the scatter of up to gradBlock fresh rows plus d²/2 per cached block, so
// smaller blocks trade fresh rows for merges.
const gradBlock = 32

// gradWindow is the gradient window rank adaptation reads its covariance
// from (§IV-C): a ring of the last GradWindow pooled gradients, cut into
// gradBlock-slot blocks. A block's moments are summed once, when its last
// slot is written, and cached until its first slot is written again, so
// each gradient enters the scatter once however often the window is read.
type gradWindow struct {
	buf   *tensor.Matrix // GradWindow×dim
	count int            // slots filled (≤ GradWindow)
	next  int            // slot the next gradient goes to

	// blocks[b] holds block b's moments while cached (N == 0: not cached).
	// merged and open are moments' result and its scratch for the block the
	// ring is part-way through. All of them share one slab.
	blocks       []tensor.Moments
	merged, open tensor.Moments
}

func newGradWindow(size, dim int) *gradWindow {
	nb := (size + gradBlock - 1) / gradBlock
	ms := tensor.MakeMoments(nb+2, dim)
	return &gradWindow{buf: tensor.NewMatrix(size, dim), blocks: ms[:nb:nb], merged: ms[nb], open: ms[nb+1]}
}

// record appends a gradient to the ring, and caches the moments of the block
// it completes.
func (w *gradWindow) record(grad []float64) {
	s, size := w.next, w.buf.Rows
	b := &w.blocks[s/gradBlock]
	if s%gradBlock == 0 {
		b.N = 0
	}
	copy(w.buf.Row(s), grad)
	w.next = (s + 1) % size
	w.count = min(w.count+1, size)
	if lo := s - s%gradBlock; s+1 == min(lo+gradBlock, size) {
		b.Of(w.rows(lo, s+1))
	}
}

// rows returns ring slots [lo, hi) as a matrix view.
func (w *gradWindow) rows(lo, hi int) *tensor.Matrix {
	d := w.buf.Cols
	return &tensor.Matrix{Rows: hi - lo, Cols: d, Data: w.buf.Data[lo*d : hi*d]}
}

// moments merges the window's moments in slot order: every cached block, and
// for the block the ring is part-way through a fresh set over its filled
// slots — all of them once the ring has wrapped. The result is valid until
// the next call.
func (w *gradWindow) moments() *tensor.Moments {
	m := &w.merged
	m.N = 0
	for i := range w.blocks {
		b := &w.blocks[i]
		if b.N == 0 {
			lo := i * gradBlock
			hi := min(lo+gradBlock, w.count)
			if hi <= lo {
				break // unwritten: so is every later block
			}
			b = &w.open
			b.Of(w.rows(lo, hi))
		}
		m.Merge(b)
	}
	return m
}

// reset empties the window.
func (w *gradWindow) reset() {
	w.count, w.next = 0, 0
	for i := range w.blocks {
		w.blocks[i].N = 0
	}
}
