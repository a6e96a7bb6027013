package main

import (
	"slices"
	"sync"
	"time"
)

// The reference kernel is a fixed piece of work of the benchmark's own, run
// for a few milliseconds before every piece of every workload, to take the
// speed of the host at that moment. It is two loops of about equal length on
// a calm host: a dependent arithmetic chain, which this host runs at the same
// speed whatever its neighbours do, and random 128-byte reads from an 8 MB
// table, which slow down by a third to a half when a neighbour shares the
// core or the cache. The workloads (embedding lookups and small matrix
// products over a working set of a few megabytes, between bookkeeping that
// fits the cache) slow down by about what the two together do; the reads
// alone overstate it by a factor of two and the chain alone sees nothing.
const (
	refBlocks  = 32
	refChain   = 2000000 // xorshift rounds, over all blocks
	refWords   = 1 << 20 // float64s in the table: 8 MB
	refRun     = 16      // consecutive float64s per read: two cache lines
	refGathers = 150000  // over all blocks

	// refTime fixes the reference speed timing metrics are reported at: that
	// of a host on which the kernel takes this long. The reference host is
	// that fast in its middle state: the kernel takes 6.8 ms there while the
	// neighbours are idle and 9-10 ms while they are busy.
	refTime = 8000 * time.Microsecond
)

var (
	refOnce  sync.Once
	refTable []float64
)

// refKernel runs the kernel once, in refBlocks blocks of a chain and reads
// each, and returns what it takes undisturbed: refBlocks times the lower
// quartile of the blocks' times, chain and reads apart. Each lane reads its
// own sequence of rows. Whatever else the process or the guest kernel puts on
// this processor in the meantime (a garbage collector's worker, an interrupt)
// stretches some blocks and leaves the lower quartile alone; the host's
// neighbours stretch every block. The second result keeps the reads alive.
func refKernel(lane int) (time.Duration, float64) {
	var cs, rs [refBlocks]time.Duration
	x := uint64(88172645463325252) + uint64(lane)*0x9e3779b97f4a7c15 // each lane reads its own rows
	s := 0.0
	for b := range cs {
		t0 := time.Now()
		for i := 0; i < refChain/refBlocks; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		t1 := time.Now()
		for i := 0; i < refGathers/refBlocks; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			base := int(x&(refWords-1)) &^ (refRun - 1)
			for _, v := range refTable[base : base+refRun] {
				s += v
			}
		}
		cs[b], rs[b] = t1.Sub(t0), time.Since(t1)
	}
	slices.Sort(cs[:])
	slices.Sort(rs[:])
	return (cs[refBlocks/4] + rs[refBlocks/4]) * refBlocks, s
}

// hostSlowness runs the kernel on lanes goroutines at once, the number the
// workload keeps busy, and returns how many times longer than refTime it
// took, averaged over the lanes.
func hostSlowness(lanes int) float64 {
	refOnce.Do(func() {
		refTable = make([]float64, refWords)
		for i := range refTable {
			refTable[i] = float64(i % 13)
		}
	})
	if lanes < 1 {
		lanes = 1
	}
	took, read := make([]time.Duration, lanes), make([]float64, lanes)
	var wg sync.WaitGroup
	for g := 1; g < lanes; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			took[g], read[g] = refKernel(g)
		}(g)
	}
	took[0], read[0] = refKernel(0)
	wg.Wait()
	var sum time.Duration
	for g, d := range took {
		sum += d
		sink += read[g]
	}
	return float64(sum) / float64(lanes) / float64(refTime)
}
