package tensor

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// The kernels FuzzKernels drives, by the fuzzer's kernel byte modulo their
// count.
const (
	fuzzTransMatVec = iota // TransMatVecInto: bias drawn or +0, ReLU on or off
	fuzzPairDots
	fuzzAxpy
	fuzzAxpyRows
	fuzzMomentsOf
	fuzzMomentsMerge
	fuzzKernelCount
)

// fuzzGuard sentinel cells sit on each side of every operand; fuzzSentinel
// is their bits, a signalling NaN no kernel computes.
const fuzzGuard = 4

var fuzzSentinel = math.Float64frombits(0x7ff4_0000_dead_beef)

// fuzzOps draws one case's operands, each between guard cells: the raw bit
// patterns first, then draws seeded from them — specialDraw's, or
// finiteDraw's when finite is set.
type fuzzOps struct {
	raw    []byte
	rng    *RNG
	finite bool
	bufs   [][]float64 // whole buffers, guards included
	before [][]float64 // each operand's cells when sealed
}

func cells(buf []float64) []float64 {
	n := len(buf) - fuzzGuard
	return buf[fuzzGuard:n:n]
}

func (o *fuzzOps) operand(n int) []float64 {
	buf := make([]float64, n+2*fuzzGuard)
	for i := range buf {
		switch {
		case i < fuzzGuard || i >= n+fuzzGuard:
			buf[i] = fuzzSentinel
		case len(o.raw) >= 8:
			buf[i] = math.Float64frombits(binary.LittleEndian.Uint64(o.raw))
			o.raw = o.raw[8:]
		case o.finite:
			buf[i] = finiteDraw(o.rng)
		default:
			buf[i] = specialDraw(o.rng)
		}
	}
	o.bufs = append(o.bufs, buf)
	return cells(buf)
}

// seal gives every NaN in the operands one bit pattern and records what each
// holds. That is the property tests' rule: no operation meets two NaNs of
// different bits, so no result depends on operand order. Where an infinity
// or a magnitude that can overflow is present, the pattern is the default
// NaN that ∞ − ∞ and 0·∞ give; otherwise it is the first NaN's, quieted.
func (o *fuzzOps) seal() {
	nan, first, overflows := math.NaN(), true, false
	for _, buf := range o.bufs {
		for _, x := range cells(buf) {
			if math.IsNaN(x) && first {
				nan, first = math.Float64frombits(math.Float64bits(x)|1<<51), false
			} else if math.Abs(x) >= 1e100 {
				overflows = true
			}
		}
	}
	if overflows {
		nan = infinity - infinity
	}
	for _, buf := range o.bufs {
		for i, x := range cells(buf) {
			if math.IsNaN(x) {
				cells(buf)[i] = nan
			}
		}
		o.before = append(o.before, append([]float64(nil), cells(buf)...))
	}
}

// runKernel runs one kernel on operands drawn from raw, on the path useAVX2
// selects, and returns the cells its doc defines. It fails t on a write to
// a guard cell, to an operand the kernel only reads (each case draws those
// first), or to a cell of an output the kernel must leave alone.
func runKernel(t *testing.T, kernel, m, n int, raw []byte, finite bool) []float64 {
	h := fnv.New64a()
	h.Write(raw)
	o := &fuzzOps{raw: raw, rng: NewRNG(h.Sum64()), finite: finite}
	var inputs int
	var run func() []float64
	// scatter returns operand k's mean and operand k+1's M2 upper triangle,
	// and fails t if M2's strict lower triangle changed (outside the
	// diagonal 4×4 blocks, with blocks set).
	scatter := func(k, d int, blocks bool) []float64 {
		out := append([]float64(nil), cells(o.bufs[k])...)
		m2 := cells(o.bufs[k+1])
		for p := 0; p < d; p++ {
			for q := 0; q < p; q++ {
				if !(blocks && p/4 == q/4) && math.Float64bits(m2[p*d+q]) != math.Float64bits(o.before[k+1][p*d+q]) {
					t.Fatalf("kernel %d %dx%d: strict lower M2[%d][%d] written", kernel, m, n, p, q)
				}
			}
			out = append(out, m2[p*d+p:p*d+d]...)
		}
		return out
	}
	switch kernel {
	case fuzzTransMatVec: // m outputs from n inputs
		at, x, b := o.operand(n*m), o.operand(n), o.operand(m)
		if len(raw)&1 == 1 {
			clear(b)
		}
		inputs = 3
		dst := o.operand(m)
		run = func() []float64 {
			TransMatVecInto(dst, &Matrix{Rows: n, Cols: m, Data: at}, x, b, len(raw)&2 == 2)
			return dst
		}
	case fuzzPairDots: // m features of n
		f := o.operand(m * n)
		inputs = 1
		dst, scratch := o.operand(m*(m-1)/2), o.operand(n*(m+3))
		run = func() []float64 {
			PairDotsInto(dst, &Matrix{Rows: m, Cols: n, Data: f}, scratch)
			return dst
		}
	case fuzzAxpy:
		x, alpha := o.operand(n), o.operand(1)
		inputs = 2
		y := o.operand(n)
		run = func() []float64 {
			Axpy(alpha[0], x, y)
			return y
		}
	case fuzzAxpyRows: // m rows of n; every third coefficient +0
		x, a, alpha := o.operand(m*n), o.operand(m), o.operand(1)
		for k := 2; k < m; k += 3 {
			a[k] = 0
		}
		inputs = 3
		dst := o.operand(n)
		run = func() []float64 {
			AxpyRows(dst, alpha[0], a, &Matrix{Rows: m, Cols: n, Data: x})
			return dst
		}
	case fuzzMomentsOf: // m rows of n features
		a := o.operand(m * n)
		inputs = 1
		mean, m2 := o.operand(n), o.operand(n*n)
		run = func() []float64 {
			(&Moments{Mean: mean, M2: m2}).Of(&Matrix{Rows: m, Cols: n, Data: a})
			return scatter(1, n, true)
		}
	case fuzzMomentsMerge: // n-dimensional sets of (31m+n)%71+1 into m+1 rows
		omean, om2 := o.operand(n), o.operand(n*n)
		inputs = 2
		mean, m2 := o.operand(n), o.operand(n*n)
		run = func() []float64 {
			mo := Moments{N: m + 1, Mean: mean, M2: m2}
			mo.Merge(&Moments{N: (31*m+n)%71 + 1, Mean: omean, M2: om2})
			return scatter(2, n, false)
		}
	}
	o.seal()
	out := run()
	for i, buf := range o.bufs {
		for j, x := range buf {
			if (j < fuzzGuard || j >= len(buf)-fuzzGuard) && math.Float64bits(x) != math.Float64bits(fuzzSentinel) {
				t.Fatalf("kernel %d %dx%d: operand %d written past its ends", kernel, m, n, i)
			}
		}
		if i < inputs && sameBitsAt(cells(buf), o.before[i]) >= 0 {
			t.Fatalf("kernel %d %dx%d: read-only operand %d written", kernel, m, n, i)
		}
	}
	return out
}

// FuzzKernels is the differential fuzzer of the AVX2 kernels: for a kernel,
// a shape of 0…70 on each side and raw float64 bit patterns, the assembly
// and the Go fallback must give the same bits under seal's NaN rule, write
// nothing outside the cells each kernel's doc allows, and not panic.
func FuzzKernels(f *testing.F) {
	if !hasAVX2() {
		f.Skip("no AVX2 on this CPU: there is no assembly to compare")
	}
	var special []byte
	for _, x := range []float64{math.Inf(1), math.Copysign(0, -1), math.NaN(), 1e300, 5e-324} {
		special = binary.LittleEndian.AppendUint64(special, math.Float64bits(x))
	}
	for k := uint8(0); k < fuzzKernelCount; k++ {
		for _, sh := range [][2]uint8{{0, 0}, {1, 7}, {9, 16}, {17, 13}, {64, 52}, {70, 70}} {
			f.Add(k, sh[0], sh[1], []byte{})
			f.Add(k|0x80, sh[1], sh[0], special)
		}
	}
	// Every length of the axpy passes: Axpy is axpy1, and AxpyRows over 8
	// rows (rows 2 and 5 +0) runs axpy4, then axpy2.
	for n := uint8(0); n <= 70; n++ {
		f.Add(uint8(fuzzAxpy), uint8(0), n, []byte{})
		f.Add(uint8(fuzzAxpyRows), uint8(8), n, []byte{})
	}
	f.Fuzz(func(t *testing.T, kernel, m, n uint8, raw []byte) {
		defer func(v bool) { useAVX2 = v }(useAVX2)
		k, rows, cols, finite := int(kernel%fuzzKernelCount), int(m%71), int(n%71), kernel&0x80 != 0
		useAVX2 = false
		want := runKernel(t, k, rows, cols, raw, finite)
		useAVX2 = true
		got := runKernel(t, k, rows, cols, raw, finite)
		if i := sameBitsAt(got, want); i >= 0 {
			t.Fatalf("kernel %d %dx%d: output %d is %v (%#x) in assembly, %v (%#x) in Go", k, rows, cols,
				i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	})
}
