package numasim

import (
	"testing"
	"testing/quick"

	"liveupdate/internal/simnet"
	"liveupdate/internal/tensor"
)

// contains reports residency without touching LRU order or counters.
func contains(c *l3Cache, key blockKey) bool {
	_, ok := c.index[key.packed()]
	return ok
}

func mustNewController(cfg ControllerConfig, m *Machine, clock *simnet.Clock, initialInfCCDs int) *Controller {
	ctl, err := NewController(cfg, m, clock, initialInfCCDs)
	if err != nil {
		panic(err)
	}
	return ctl
}

func TestL3CacheLRU(t *testing.T) {
	c := newL3Cache(2)
	k := func(r int32) blockKey { return blockKey{Space: 0, Row: r} }
	if c.access(k(1)) {
		t.Fatal("cold access must miss")
	}
	if !c.access(k(1)) {
		t.Fatal("warm access must hit")
	}
	c.access(k(2))
	c.access(k(3)) // evicts LRU = 1 (2 was accessed after 1's last touch? order: 1,1,2,3 → LRU is 1)
	if contains(c, k(1)) {
		t.Fatal("LRU block must be evicted")
	}
	if !contains(c, k(2)) || !contains(c, k(3)) {
		t.Fatal("recently used blocks must stay")
	}
	if len(c.nodes) != 2 {
		t.Fatalf("len %d, want the capacity 2", len(c.nodes))
	}
}

func TestL3CacheHitRatio(t *testing.T) {
	c := newL3Cache(10)
	c.access(blockKey{0, 1}) // miss
	c.access(blockKey{0, 1}) // hit
	if c.hits != 1 || c.misses != 1 {
		t.Fatalf("hits %d misses %d, want 1 and 1", c.hits, c.misses)
	}
	c.resetStats()
	if c.hits != 0 || c.misses != 0 {
		t.Fatal("ResetStats failed")
	}
	if !contains(c, blockKey{0, 1}) {
		t.Fatal("ResetStats must not flush contents")
	}
	c.flush()
	if len(c.nodes) != 0 || contains(c, blockKey{0, 1}) {
		t.Fatal("Flush must empty the cache")
	}
}

func TestMachineConfigValidation(t *testing.T) {
	good := DefaultConfig()
	if err := good.validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.NumCCDs = 0 },
		func(c *Config) { c.L3BlocksPerCCD = 0 },
		func(c *Config) { c.L3HitLatency = 0 },
		func(c *Config) { c.DRAMLatency = c.L3HitLatency },
		func(c *Config) { c.DRAMBandwidth = 0 },
		func(c *Config) { c.BlockBytes = 0 },
		func(c *Config) { c.PrefetchHit = 1.5 },
	}
	for i, mutate := range mutations {
		c := DefaultConfig()
		mutate(&c)
		if err := c.validate(); err == nil {
			t.Fatalf("mutation %d should fail validation", i)
		}
	}
	if _, err := NewMachine(Config{}, simnet.NewClock()); err == nil {
		t.Fatal("NewMachine must reject invalid config")
	}
}

func newTestMachine() (*Machine, *simnet.Clock) {
	clock := simnet.NewClock()
	cfg := DefaultConfig()
	cfg.L3BlocksPerCCD = 64 // small so eviction effects are visible
	return MustNewMachine(cfg, clock), clock
}

func TestAccessHitAfterMiss(t *testing.T) {
	m, _ := newTestMachine()
	l1 := m.Access(Inference, KindCached, 0, 42)
	l2 := m.Access(Inference, KindCached, 0, 42)
	if l1 <= l2 {
		t.Fatalf("miss %v must cost more than hit %v", l1, l2)
	}
	if l2 != m.config().L3HitLatency {
		t.Fatalf("hit latency %v", l2)
	}
	if m.HitRatio(Inference) != 0.5 {
		t.Fatalf("hit ratio %v", m.HitRatio(Inference))
	}
	if m.DRAMBytes(Inference) != m.config().BlockBytes {
		t.Fatalf("dram bytes %d", m.DRAMBytes(Inference))
	}
}

func TestCoLocationThrashing(t *testing.T) {
	// Without partitioning, a training scan over many rows evicts the
	// inference hot set; with partitioning it cannot. This is the causal
	// mechanism behind Figs 11 and 16.
	run := func(partition bool) float64 {
		clock := simnet.NewClock()
		cfg := DefaultConfig()
		cfg.L3BlocksPerCCD = 16 // tight cache: eviction pressure is visible
		m := MustNewMachine(cfg, clock)
		if partition {
			if err := m.Partition(8); err != nil {
				t.Fatal(err)
			}
		}
		hot := []int32{1, 2, 3, 4, 5, 6, 7, 8}
		// Warm the inference hot set.
		for _, r := range hot {
			m.Access(Inference, KindCached, 0, r)
		}
		m.ResetStats()
		scan := int32(0)
		for step := 0; step < 2000; step++ {
			m.Access(Inference, KindCached, 0, hot[step%len(hot)])
			// Training scans a huge working set (random-ish rows).
			for k := 0; k < 32; k++ {
				scan++
				m.Access(Training, KindCached, 1, 1000+scan%4096)
			}
			clock.Advance(0.001)
		}
		return m.HitRatio(Inference)
	}
	shared := run(false)
	isolated := run(true)
	if isolated < 0.95 {
		t.Fatalf("isolated inference hit ratio %v, want ~1", isolated)
	}
	if shared > isolated-0.2 {
		t.Fatalf("co-location should thrash: shared %v vs isolated %v", shared, isolated)
	}
}

func TestReusePathHitsWithoutDRAMCharge(t *testing.T) {
	m, _ := newTestMachine()
	var total float64
	for i := int32(0); i < 1000; i++ {
		total += m.Access(Training, KindReuse, 0, i)
	}
	ratio := m.HitRatio(Training)
	if ratio < 0.9 {
		t.Fatalf("reuse hit ratio %v, want ≥ PrefetchHit≈0.95", ratio)
	}
	// DRAM traffic only for the ~5% prefetch misses.
	maxBytes := int64(0.1 * 1000 * float64(m.config().BlockBytes))
	if m.DRAMBytes(Training) > maxBytes {
		t.Fatalf("reuse path charged %d DRAM bytes", m.DRAMBytes(Training))
	}
	_ = total
}

func TestContentionInflatesMissLatency(t *testing.T) {
	clock := simnet.NewClock()
	cfg := DefaultConfig()
	cfg.L3BlocksPerCCD = 4
	cfg.DRAMBandwidth = 1e5 // tiny: easy to saturate
	m := MustNewMachine(cfg, clock)
	// Generate heavy miss traffic within short virtual time.
	var row int32
	for w := 0; w < 100; w++ {
		for i := 0; i < 50; i++ {
			row++
			m.Access(Training, KindCached, 0, row)
		}
		clock.Advance(0.11) // roll the bandwidth window
	}
	if m.DRAMUtilization() < 0.5 {
		t.Fatalf("expected saturated DRAM, util %v", m.DRAMUtilization())
	}
	inflated := m.missLatency()
	if inflated <= cfg.DRAMLatency*1.2 {
		t.Fatalf("latency %v not inflated over base %v", inflated, cfg.DRAMLatency)
	}
	if inflated > cfg.DRAMLatency*8.01 {
		t.Fatalf("inflation must be capped at 8x, got %v", inflated/cfg.DRAMLatency)
	}
}

func TestPartitionValidationAndFlush(t *testing.T) {
	m, _ := newTestMachine()
	if err := m.Partition(0); err == nil {
		t.Fatal("Partition(0) must fail")
	}
	if err := m.Partition(12); err == nil {
		t.Fatal("Partition(all) must fail")
	}
	if err := m.Partition(8); err != nil {
		t.Fatal(err)
	}
	if len(m.CCDsOf(Inference)) != 8 || len(m.CCDsOf(Training)) != 4 {
		t.Fatalf("partition sizes %d/%d", len(m.CCDsOf(Inference)), len(m.CCDsOf(Training)))
	}
}

func TestPowerModel(t *testing.T) {
	m, _ := newTestMachine()
	if err := m.Partition(10); err != nil {
		t.Fatal(err)
	}
	infOnly := m.Power(0.5, 0)
	coLocated := m.Power(0.5, 1.0)
	if coLocated <= infOnly {
		t.Fatal("co-located training must raise power")
	}
	// Paper Fig 5: concurrent training costs roughly 20% extra.
	ratio := coLocated / infOnly
	if ratio < 1.05 || ratio > 1.5 {
		t.Fatalf("co-location power ratio %v outside plausible band", ratio)
	}
	// Clamping.
	if m.Power(-1, -1) != m.Power(0, 0) {
		t.Fatal("loads must clamp at 0")
	}
	if m.Power(2, 2) < m.Power(1, 1) {
		t.Fatal("loads must clamp at 1")
	}
}

func TestResetStats(t *testing.T) {
	m, _ := newTestMachine()
	m.Access(Inference, KindCached, 0, 1)
	m.ResetStats()
	if m.HitRatio(Inference) != 0 || m.DRAMBytes(Inference) != 0 {
		t.Fatal("ResetStats failed")
	}
}

// --- Controller (Algorithm 2) tests ---

func TestControllerConfigValidate(t *testing.T) {
	cfg := DefaultControllerConfig(12)
	if err := cfg.validate(12); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.THigh = bad.TLow
	if err := bad.validate(12); err == nil {
		t.Fatal("THigh <= TLow must fail")
	}
	bad = cfg
	bad.MinInfCCDs = 0
	if err := bad.validate(12); err == nil {
		t.Fatal("MinInfCCDs 0 must fail")
	}
	bad = cfg
	bad.CyclePeriod = 0
	if err := bad.validate(12); err == nil {
		t.Fatal("CyclePeriod 0 must fail")
	}
}

func TestControllerMovesCCDsUnderPressure(t *testing.T) {
	m, clock := newTestMachine()
	cfg := DefaultControllerConfig(12)
	ctl := mustNewController(cfg, m, clock, 10)
	start := ctl.InferenceCCDs()
	// Sustained SLA violation: controller must grow inference.
	for i := 0; i < 3; i++ {
		clock.Advance(cfg.CyclePeriod + 0.01)
		ctl.Observe(0.015) // 15 ms > THigh
	}
	if ctl.InferenceCCDs() <= start {
		t.Fatalf("controller did not grow inference: %d", ctl.InferenceCCDs())
	}
}

func TestControllerReclaimsForTraining(t *testing.T) {
	m, clock := newTestMachine()
	cfg := DefaultControllerConfig(12)
	ctl := mustNewController(cfg, m, clock, 11)
	for i := 0; i < 5; i++ {
		clock.Advance(cfg.CyclePeriod + 0.01)
		ctl.Observe(0.003) // 3 ms < TLow
	}
	if ctl.TrainingCCDs() <= 1 {
		t.Fatalf("controller did not reclaim for training: %d", ctl.TrainingCCDs())
	}
	// Cap respected.
	if ctl.TrainingCCDs() > cfg.MaxTrainCCDs {
		t.Fatalf("training %d exceeds cap %d", ctl.TrainingCCDs(), cfg.MaxTrainCCDs)
	}
}

func TestControllerHysteresisBand(t *testing.T) {
	m, clock := newTestMachine()
	cfg := DefaultControllerConfig(12)
	ctl := mustNewController(cfg, m, clock, 9)
	before := ctl.InferenceCCDs()
	for i := 0; i < 5; i++ {
		clock.Advance(cfg.CyclePeriod + 0.01)
		if ctl.Observe(0.008) { // between TLow and THigh: no action
			t.Fatal("controller must not act inside the hysteresis band")
		}
	}
	if ctl.InferenceCCDs() != before {
		t.Fatal("partition changed inside hysteresis band")
	}
}

func TestControllerCyclePeriodThrottling(t *testing.T) {
	m, clock := newTestMachine()
	cfg := DefaultControllerConfig(12)
	ctl := mustNewController(cfg, m, clock, 9)
	clock.Advance(cfg.CyclePeriod + 0.01)
	if !ctl.Observe(0.02) {
		t.Fatal("first observation should adjust")
	}
	// Immediately after, another violation must be ignored.
	if ctl.Observe(0.02) {
		t.Fatal("adjustments must respect the cycle period")
	}
}

func TestControllerRespectsMinInference(t *testing.T) {
	m, clock := newTestMachine()
	cfg := DefaultControllerConfig(12) // MinInf = 6
	ctl := mustNewController(cfg, m, clock, 6)
	for i := 0; i < 10; i++ {
		clock.Advance(cfg.CyclePeriod + 0.01)
		ctl.Observe(0.001)
	}
	if ctl.InferenceCCDs() < cfg.MinInfCCDs {
		t.Fatalf("inference %d below minimum %d", ctl.InferenceCCDs(), cfg.MinInfCCDs)
	}
}

// Property: under arbitrary P99 sequences the controller invariants hold.
func TestPropertyControllerInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		m, clock := newTestMachine()
		cfg := DefaultControllerConfig(12)
		ctl := mustNewController(cfg, m, clock, 6+rng.Intn(5))
		for i := 0; i < 60; i++ {
			clock.Advance(cfg.CyclePeriod * (0.5 + rng.Float64()))
			ctl.Observe(rng.Float64() * 0.03)
			n := m.config().NumCCDs
			if ctl.InferenceCCDs() < cfg.MinInfCCDs || ctl.InferenceCCDs() > n-1 {
				return false
			}
			if ctl.TrainingCCDs() < 1 || ctl.TrainingCCDs() > cfg.MaxTrainCCDs {
				return false
			}
			if len(m.CCDsOf(Inference))+len(m.CCDsOf(Training)) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
