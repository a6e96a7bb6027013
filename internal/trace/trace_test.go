package trace

import (
	"math"
	"testing"
	"testing/quick"

	"liveupdate/internal/metrics"
	"liveupdate/internal/tensor"
)

func testProfile() Profile {
	p := Profiles()["criteo"]
	p.TableSize = 500 // keep tests fast
	return p
}

func TestProfilesRegistry(t *testing.T) {
	ps := Profiles()
	for _, name := range []string{"avazu", "criteo", "bd-tb", "avazu-tb", "criteo-tb"} {
		p, ok := ps[name]
		if !ok {
			t.Fatalf("missing profile %q", name)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("profile %q invalid: %v", name, err)
		}
	}
	// Table II scale checks.
	if ps["bd-tb"].PaperEMTBytes != 50*tb {
		t.Fatalf("bd-tb EMT bytes = %d, want 50 TB", ps["bd-tb"].PaperEMTBytes)
	}
	if ps["avazu"].PaperEMTBytes >= gb {
		t.Fatalf("avazu EMT should be sub-GB (0.55 GB)")
	}
}

func TestProfileByName(t *testing.T) {
	if _, err := ProfileByName("criteo"); err != nil {
		t.Fatal(err)
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Fatal("expected error for unknown profile")
	}
}

func TestProfileValidate(t *testing.T) {
	cases := []func(*Profile){
		func(p *Profile) { p.NumTables = 0 },
		func(p *Profile) { p.TableSize = -1 },
		func(p *Profile) { p.EmbeddingDim = 0 },
		func(p *Profile) { p.MultiHot = nil },
		func(p *Profile) { p.PositiveRate = 0 },
		func(p *Profile) { p.PositiveRate = 1 },
		func(p *Profile) { p.ZipfS = 0 },
		func(p *Profile) { p.MultiHot[0] = 0 },
	}
	for i, mutate := range cases {
		p := testProfile()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p := testProfile()
	g1 := MustNewGenerator(p, 99)
	g2 := MustNewGenerator(p, 99)
	for i := 0; i < 50; i++ {
		a, b := g1.Next(), g2.Next()
		if a.Label != b.Label {
			t.Fatal("same seed must give same labels")
		}
		for t1 := range a.Sparse {
			for h := range a.Sparse[t1] {
				if a.Sparse[t1][h] != b.Sparse[t1][h] {
					t.Fatal("same seed must give same ids")
				}
			}
		}
	}
}

func TestGeneratorSampleShape(t *testing.T) {
	p := testProfile()
	g := MustNewGenerator(p, 1)
	s := g.Next()
	if len(s.Dense) != p.NumDense {
		t.Fatalf("dense len %d, want %d", len(s.Dense), p.NumDense)
	}
	if len(s.Sparse) != p.NumTables {
		t.Fatalf("sparse tables %d, want %d", len(s.Sparse), p.NumTables)
	}
	for ti, ids := range s.Sparse {
		if len(ids) != p.MultiHot[ti] {
			t.Fatalf("table %d hot %d, want %d", ti, len(ids), p.MultiHot[ti])
		}
		for _, id := range ids {
			if id < 0 || int(id) >= p.TableSize {
				t.Fatalf("id %d out of range", id)
			}
		}
	}
	if s.Label != 0 && s.Label != 1 {
		t.Fatalf("label %d", s.Label)
	}
}

func TestGeneratorPositiveRateCalibration(t *testing.T) {
	p := testProfile()
	g := MustNewGenerator(p, 7)
	n := 20000
	pos := 0
	for i := 0; i < n; i++ {
		pos += g.Next().Label
	}
	rate := float64(pos) / float64(n)
	if rate < p.PositiveRate*0.5 || rate > p.PositiveRate*2.0 {
		t.Fatalf("positive rate %v too far from target %v", rate, p.PositiveRate)
	}
}

func TestGeneratorDrift(t *testing.T) {
	p := testProfile()
	g := MustNewGenerator(p, 3)
	before := append([]float64(nil), g.context...)
	g.Advance(4 * 3600) // 4 virtual hours
	after := append([]float64(nil), g.context...)
	dot := tensor.Dot(before, after)
	if dot > 0.999 {
		t.Fatalf("context did not drift after 4h: cos=%v", dot)
	}
	// Unit length preserved.
	if math.Abs(tensor.Norm2(after)-1) > 1e-9 {
		t.Fatalf("context norm %v != 1", tensor.Norm2(after))
	}
	// No drift when dt <= 0.
	snap := append([]float64(nil), g.context...)
	g.Advance(0)
	g.Advance(-5)
	for i, v := range append([]float64(nil), g.context...) {
		if v != snap[i] {
			t.Fatal("Advance with dt<=0 must be a no-op")
		}
	}
}

func TestGeneratorDriftDegradesStaleScores(t *testing.T) {
	// A proxy model frozen at t=0 (the ground-truth at that instant) must
	// predict worse after substantial drift. This is the core property that
	// makes freshness experiments meaningful.
	p := testProfile()
	p.DriftRate = 0.8
	g := MustNewGenerator(p, 5)
	frozen := append([]float64(nil), g.context...)

	score := func(ctx []float64, n int) float64 {
		scores := make([]float64, 0, n)
		labels := make([]int, 0, n)
		for i := 0; i < n; i++ {
			s := g.Next()
			// Score with the frozen context using the generator's own hidden
			// tables (oracle features, frozen preference direction).
			logit := 0.0
			for ti, ids := range s.Sparse {
				pooled := make([]float64, 8)
				for _, id := range ids {
					tensor.Axpy(1/float64(len(ids)), g.gTables[ti].Row(int(id)), pooled)
				}
				logit += tensor.Dot(pooled, ctx)
			}
			scores = append(scores, logit)
			labels = append(labels, s.Label)
		}
		return metrics.AUC(scores, labels)
	}

	aucFresh := score(frozen, 4000)
	g.Advance(12 * 3600) // 12 virtual hours of drift
	aucStale := score(frozen, 4000)
	if aucStale >= aucFresh-0.02 {
		t.Fatalf("stale scoring should degrade: fresh=%v stale=%v", aucFresh, aucStale)
	}
}

func TestGeneratorZipfSkewInAccesses(t *testing.T) {
	p := testProfile()
	g := MustNewGenerator(p, 11)
	for i := 0; i < 20000; i++ {
		g.Next()
	}
	counts := g.AccessCounts()[0]
	share := metrics.TopShareCDF(counts, 0.10)
	if share < 0.5 {
		t.Fatalf("top-10%% access share %v too low", share)
	}
}

func TestGeneratorBatch(t *testing.T) {
	p := testProfile()
	g := MustNewGenerator(p, 13)
	batch := g.Batch(10, 60)
	if len(batch) != 10 {
		t.Fatalf("batch len %d", len(batch))
	}
	if math.Abs(g.now-60) > 1e-9 {
		t.Fatalf("batch should advance 60s, now=%v", g.now)
	}
	if g.Batch(0, 10) != nil {
		t.Fatal("empty batch should be nil")
	}
	if g.emitted != 10 {
		t.Fatalf("emitted = %d", g.emitted)
	}
}

func TestDiurnalLoadFactor(t *testing.T) {
	trough := DiurnalLoadFactor(4)
	peak := DiurnalLoadFactor(21)
	if peak <= trough*1.5 {
		t.Fatalf("diurnal curve flat: trough %v peak %v", trough, peak)
	}
	// Periodicity and positivity.
	for h := 0.0; h < 24; h += 0.5 {
		v := DiurnalLoadFactor(h)
		if v <= 0 {
			t.Fatalf("load factor must be positive at %v: %v", h, v)
		}
		if math.Abs(DiurnalLoadFactor(h+24)-v) > 1e-9 {
			t.Fatalf("load factor not 24h-periodic at %v", h)
		}
		if math.Abs(DiurnalLoadFactor(h-24)-v) > 1e-9 {
			t.Fatalf("negative-hour wrap broken at %v", h)
		}
	}
}

func TestNewGeneratorRejectsInvalid(t *testing.T) {
	p := testProfile()
	p.NumTables = 0
	if _, err := NewGenerator(p, 1); err == nil {
		t.Fatal("expected error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewGenerator should panic on invalid profile")
		}
	}()
	MustNewGenerator(p, 1)
}

// Property: generated ids are always within table bounds for arbitrary seeds.
func TestPropertyGeneratorBounds(t *testing.T) {
	p := testProfile()
	f := func(seed uint64) bool {
		g := MustNewGenerator(p, seed)
		for i := 0; i < 100; i++ {
			s := g.Next()
			for ti, ids := range s.Sparse {
				_ = ti
				for _, id := range ids {
					if id < 0 || int(id) >= p.TableSize {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
