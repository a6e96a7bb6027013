package numasim

import (
	"fmt"

	"liveupdate/internal/simnet"
)

// Workload tags the two co-located processes of paper Fig 13.
type Workload int

// The two co-resident workloads.
const (
	Inference Workload = iota
	Training
	numWorkloads
)

// AccessKind distinguishes the memory paths of §IV-D.
type AccessKind int

const (
	// KindCached is a normal cached embedding access (inference lookups and
	// un-optimized training reads/writes).
	KindCached AccessKind = iota
	// KindReuse is a training access through the shadow embedding table:
	// pinned, prefetched, tightly arranged — served at near-hit latency and
	// charged no DRAM bandwidth (the vector was already fetched by
	// inference).
	KindReuse
	// KindStream is a write-once block (the naive trainer's per-step
	// optimizer/gradient scratch): a fresh block per access that no L3 can
	// retain. It always misses, is installed as most recently used and ages
	// out like any block, but is never looked up again. The row argument is
	// ignored; the machine numbers the blocks itself.
	KindStream
)

// Config sets the machine model's capacities and timing constants. The time
// constants are calibrated so a serving request (≈16 row accesses plus dense
// compute) lands in the paper's single-digit-millisecond band and naive
// co-location pushes P99 beyond 2× (Fig 16); they are model parameters, not
// hardware measurements.
type Config struct {
	NumCCDs        int     // CCDs on the node (paper example: 12)
	L3BlocksPerCCD int     // rows resident per CCD L3 (scaled 96 MB)
	L3HitLatency   float64 // seconds per L3-resident row access
	DRAMLatency    float64 // seconds per DRAM row access, uncontended
	DRAMBandwidth  float64 // bytes/sec shared across workloads
	BlockBytes     int64   // bytes per row access (embedding row)
	PrefetchHit    float64 // shadow-table served-from-cache fraction

	// Spaces × Rows is the block key space (e.g. tables × rows per table)
	// each CCD's L3 index is presized to: no access inside it allocates, and
	// a key outside it grows the index on first touch.
	Spaces int
	Rows   int

	// Concurrency scales DRAM traffic accounting: the simulated request
	// stream stands in for this many concurrent streams on the node, so
	// each miss charges Concurrency×BlockBytes to the shared channel.
	// Latency composition per simulated request is unchanged. Values ≤ 1
	// mean a single stream (default).
	Concurrency float64

	// Power model (Figs 5, 18a): watts = Idle + PerCCDActive·activeCCDs +
	// PerGBps·(DRAM GB/s).
	PowerIdle     float64
	PowerPerCCD   float64
	PowerPerGBps  float64
	ContentionRef float64 // utilization knee for latency inflation
}

// DefaultConfig returns a scaled model of the paper's node: 12 CCDs, hot-set
// sized L3s, 100 ns-class DRAM scaled to the simulation's ms-class request
// budget.
func DefaultConfig() Config {
	return Config{
		NumCCDs:        12,
		L3BlocksPerCCD: 2048,
		L3HitLatency:   20e-6,  // 20 µs per row (scaled)
		DRAMLatency:    250e-6, // 250 µs per row miss (scaled)
		DRAMBandwidth:  38.4e9, // DDR5 channel figure from paper Fig 2
		BlockBytes:     128,    // 16 floats + metadata
		PrefetchHit:    0.95,
		PowerIdle:      120,
		PowerPerCCD:    14,
		PowerPerGBps:   2.0,
		ContentionRef:  0.85,
	}
}

// validate reports configuration errors.
func (c Config) validate() error {
	switch {
	case c.NumCCDs <= 0:
		return fmt.Errorf("numasim: NumCCDs must be positive")
	case c.L3BlocksPerCCD <= 0 || c.L3BlocksPerCCD > maxBlocks:
		return fmt.Errorf("numasim: L3BlocksPerCCD %d out of [1,%d]", c.L3BlocksPerCCD, maxBlocks)
	case c.Spaces < 0 || c.Rows < 0:
		return fmt.Errorf("numasim: Spaces and Rows must not be negative")
	case c.L3HitLatency <= 0 || c.DRAMLatency <= c.L3HitLatency:
		return fmt.Errorf("numasim: need 0 < L3HitLatency < DRAMLatency")
	case c.DRAMBandwidth <= 0:
		return fmt.Errorf("numasim: DRAMBandwidth must be positive")
	case c.BlockBytes <= 0:
		return fmt.Errorf("numasim: BlockBytes must be positive")
	case c.PrefetchHit < 0 || c.PrefetchHit > 1:
		return fmt.Errorf("numasim: PrefetchHit must be in [0,1]")
	}
	return nil
}

// wstats accumulates per-workload counters.
type wstats struct {
	hits      uint64
	misses    uint64
	reuseHits uint64
	dramBytes int64
}

// Machine models one inference node's memory system: per-CCD L3 caches and a
// shared DRAM channel whose recent utilization inflates miss latency.
type Machine struct {
	cfg   Config
	clock *simnet.Clock
	ccds  []*l3Cache

	// assign[w] lists the CCD ids serving workload w. When scheduling is
	// disabled both workloads share all CCDs (the "w/o Opt" configuration).
	assign [numWorkloads][]int

	stats [numWorkloads]wstats

	// Sliding bandwidth accounting for contention.
	windowStart float64
	windowBytes int64
	lastUtil    float64
	windowLen   float64

	// Reuse path determinism.
	prefetchSeq uint64
	// Stream block numbering: each KindStream access is block streamSeq.
	streamSeq uint64
}

// NewMachine builds a machine over the given virtual clock.
func NewMachine(cfg Config, clock *simnet.Clock) (*Machine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg, clock: clock, windowLen: 0.1}
	for i := 0; i < cfg.NumCCDs; i++ {
		m.ccds = append(m.ccds, newL3Cache(cfg.L3BlocksPerCCD, cfg.Spaces, cfg.Rows))
	}
	all := make([]int, cfg.NumCCDs)
	for i := range all {
		all[i] = i
	}
	m.assign[Inference] = all
	m.assign[Training] = append([]int(nil), all...)
	return m, nil
}

// MustNewMachine panics on config errors.
func MustNewMachine(cfg Config, clock *simnet.Clock) *Machine {
	m, err := NewMachine(cfg, clock)
	if err != nil {
		panic(err)
	}
	return m
}

// Partition pins inference to the first infCCDs CCDs and training to the
// rest (the NUMA-aware scheduling of §IV-D). Reassigned CCDs are flushed:
// their working sets are cold for the new owner.
func (m *Machine) Partition(infCCDs int) error {
	if infCCDs <= 0 || infCCDs >= m.cfg.NumCCDs {
		return fmt.Errorf("numasim: infCCDs %d out of (0,%d)", infCCDs, m.cfg.NumCCDs)
	}
	oldInf := append([]int(nil), m.assign[Inference]...)
	inf := make([]int, 0, infCCDs)
	train := make([]int, 0, m.cfg.NumCCDs-infCCDs)
	for i := 0; i < m.cfg.NumCCDs; i++ {
		if i < infCCDs {
			inf = append(inf, i)
		} else {
			train = append(train, i)
		}
	}
	m.assign[Inference] = inf
	m.assign[Training] = train
	// Flush CCDs that changed owner.
	owned := func(set []int, id int) bool {
		for _, v := range set {
			if v == id {
				return true
			}
		}
		return false
	}
	for i := 0; i < m.cfg.NumCCDs; i++ {
		wasInf := owned(oldInf, i)
		isInf := owned(inf, i)
		if wasInf != isInf {
			m.ccds[i].flush()
		}
	}
	return nil
}

// CCDsOf returns a copy of the CCD set assigned to w.
func (m *Machine) CCDsOf(w Workload) []int {
	return append([]int(nil), m.assign[w]...)
}

// Access performs one row access for workload w and returns its latency in
// virtual seconds. space/row identify the block (e.g. table id, row id);
// both must be non-negative. A KindStream access ignores row and takes the
// next stream block in space.
func (m *Machine) Access(w Workload, kind AccessKind, space, row int32) float64 {
	if kind == KindReuse {
		// Shadow-table path: mostly prefetched; no DRAM charge, no cache
		// pollution. A deterministic rotor approximates the hit probability.
		m.prefetchSeq++
		if float64(m.prefetchSeq%100) < m.cfg.PrefetchHit*100 {
			m.stats[w].reuseHits++
			m.stats[w].hits++
			return m.cfg.L3HitLatency
		}
		m.stats[w].misses++
		m.chargeDRAM(w, m.cfg.BlockBytes)
		return m.missLatency()
	}

	set := m.assign[w]
	if kind == KindStream {
		m.streamSeq++
		m.ccds[set[int(uint32(space)*31+uint32(m.streamSeq))%len(set)]].stream()
	} else if m.ccds[set[int(uint32(space*31+row))%len(set)]].access(blockKey{Space: space, Row: row}) {
		m.stats[w].hits++
		return m.cfg.L3HitLatency
	}
	m.stats[w].misses++
	m.chargeDRAM(w, m.cfg.BlockBytes)
	return m.missLatency()
}

// chargeDRAM accounts miss traffic into the sliding bandwidth window.
func (m *Machine) chargeDRAM(w Workload, bytes int64) {
	if m.cfg.Concurrency > 1 {
		bytes = int64(float64(bytes) * m.cfg.Concurrency)
	}
	m.stats[w].dramBytes += bytes
	now := m.clock.Now()
	if now-m.windowStart >= m.windowLen {
		elapsed := now - m.windowStart
		if elapsed > 0 {
			m.lastUtil = float64(m.windowBytes) / elapsed / m.cfg.DRAMBandwidth
			if m.lastUtil > 1 {
				m.lastUtil = 1
			}
		}
		m.windowStart = now
		m.windowBytes = 0
	}
	m.windowBytes += bytes
}

// missLatency returns DRAM latency inflated by recent channel utilization:
// flat below the knee, then sharply queueing-limited (an M/D/1-flavored
// inflation capped at 8×).
func (m *Machine) missLatency() float64 {
	u := m.lastUtil
	ref := m.cfg.ContentionRef
	if u <= ref {
		return m.cfg.DRAMLatency * (1 + 0.3*u/ref)
	}
	over := (u - ref) / (1 - ref + 1e-9)
	factor := 1.3 + 6.7*over
	if factor > 8 {
		factor = 8
	}
	return m.cfg.DRAMLatency * factor
}

// DRAMUtilization returns the most recent window's channel utilization.
func (m *Machine) DRAMUtilization() float64 { return m.lastUtil }

// HitRatio returns workload w's L3 hit ratio since the last ResetStats.
func (m *Machine) HitRatio(w Workload) float64 {
	s := m.stats[w]
	total := s.hits + s.misses
	if total == 0 {
		return 0
	}
	return float64(s.hits) / float64(total)
}

// DRAMBytes returns the DRAM traffic workload w generated.
func (m *Machine) DRAMBytes(w Workload) int64 { return m.stats[w].dramBytes }

// ResetStats clears per-workload counters (not cache contents).
func (m *Machine) ResetStats() {
	for i := range m.stats {
		m.stats[i] = wstats{}
	}
	for _, c := range m.ccds {
		c.resetStats()
	}
}

// Power returns modelled node CPU power in watts given each workload's
// active-CCD utilization in [0,1]. Co-located training adds roughly 20% over
// inference-only at the default configuration (paper Fig 5).
func (m *Machine) Power(infLoad, trainLoad float64) float64 {
	clamp := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return v
	}
	infLoad, trainLoad = clamp(infLoad), clamp(trainLoad)
	active := infLoad*float64(len(m.assign[Inference])) +
		trainLoad*float64(len(m.assign[Training]))
	if active > float64(m.cfg.NumCCDs) {
		active = float64(m.cfg.NumCCDs)
	}
	gbps := m.lastUtil * m.cfg.DRAMBandwidth / 1e9
	return m.cfg.PowerIdle + m.cfg.PowerPerCCD*active + m.cfg.PowerPerGBps*gbps
}

// config returns the machine's configuration.
func (m *Machine) config() Config { return m.cfg }
