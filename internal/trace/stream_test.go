package trace

import (
	"reflect"
	"testing"

	"liveupdate/internal/tensor"
)

// refNext is Next as it was before the slab-backed stream: every slice of a
// sample its own allocation. It draws from the generator's RNGs in the same
// order, so a generator driven through refNext is the oracle for one driven
// through Next/Batch.
func refNext(g *Generator) Sample {
	p := g.Profile
	s := Sample{
		Time:   g.now,
		Dense:  make([]float64, p.NumDense),
		Sparse: make([][]int32, p.NumTables),
	}
	for i := range s.Dense {
		s.Dense[i] = g.rng.NormFloat64()
	}
	logit := g.bias
	for t := 0; t < p.NumTables; t++ {
		hot := p.MultiHot[t]
		ids := make([]int32, hot)
		pooled := make([]float64, g.hidden)
		for h := 0; h < hot; h++ {
			rank := g.zipfs[t].Next()
			id := g.rankMap[t][rank]
			ids[h] = id
			g.accessCounts[t][id]++
			tensor.Axpy(1/float64(hot), g.gTables[t].Row(int(id)), pooled)
		}
		s.Sparse[t] = ids
		logit += tensor.Dot(pooled, g.context) / float64(p.NumTables) * 2.5
	}
	denseSig := 0.0
	for i, v := range s.Dense {
		denseSig += v * g.denseW[i]
	}
	logit += denseSig * g.context[0]

	prob := sigmoid(logit)
	if g.rng.Float64() < prob {
		s.Label = 1
	}
	g.emitted++
	return s
}

// TestStreamMatchesReference draws 3 000 samples through random interleavings
// of Next, Batch and Advance and compares them, field for field, with the
// per-slice reference generator at the same seed.
func TestStreamMatchesReference(t *testing.T) {
	const total = 3000
	for name, p := range Profiles() {
		p.TableSize = 500
		for seed := uint64(1); seed <= 5; seed++ {
			g, ref := MustNewGenerator(p, seed), MustNewGenerator(p, seed)
			pick := tensor.NewRNG(seed * 977)
			var got, want []Sample
			for len(got) < total {
				switch pick.Intn(5) {
				case 0:
					got = append(got, g.Next())
					want = append(want, refNext(ref))
				case 1:
					dt := 3600 * pick.Float64()
					g.Advance(dt)
					ref.Advance(dt)
				default:
					n := []int{1, 7, 600}[pick.Intn(3)]
					dt := 300 * pick.Float64()
					got = append(got, g.Batch(n, dt)...)
					for i := 0; i < n; i++ {
						want = append(want, refNext(ref))
						ref.Advance(dt / float64(n))
					}
				}
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%s seed %d: sample %d is %+v, reference %+v", name, seed, i, got[i], want[i])
				}
			}
			if g.now != ref.now || g.emitted != ref.emitted ||
				!reflect.DeepEqual(g.AccessCounts(), ref.AccessCounts()) ||
				!reflect.DeepEqual(g.context, ref.context) {
				t.Fatalf("%s seed %d: generator state diverged from the reference", name, seed)
			}
		}
	}
}

// TestSamplesDoNotAlias checks the ownership rule on Sample: neighbours share
// chunks but never storage, and no later call rewrites an earlier sample.
func TestSamplesDoNotAlias(t *testing.T) {
	p := testProfile()
	g, ref := MustNewGenerator(p, 21), MustNewGenerator(p, 21)
	first := g.Batch(7, 60)
	first = append(first, g.Next(), g.Next())
	want := make([]Sample, len(first))
	for i := range want {
		want[i] = refNext(ref)
		if i < 7 {
			ref.Advance(60.0 / 7)
		}
	}
	// Growing any slice of sample i must reallocate, not run into sample i+1.
	for i := range first[:len(first)-1] {
		s := first[i]
		_ = append(s.Dense, -1)
		_ = append(s.Sparse, []int32{-1})
		for _, ids := range s.Sparse {
			_ = append(ids, -1)
		}
		if !reflect.DeepEqual(first[i+1], want[i+1]) {
			t.Fatalf("append to sample %d reached sample %d: %+v, want %+v", i, i+1, first[i+1], want[i+1])
		}
	}
	// Later batches and chunk refills leave earlier samples alone.
	g.Batch(600, 300)
	for i := 0; i < 2*chunkSamples; i++ {
		g.Next()
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatal("samples of an earlier Batch changed after later Next/Batch calls")
	}
}

func TestStreamAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	g := MustNewGenerator(testProfile(), 3)
	// Three chunks and the []Sample.
	if a := testing.AllocsPerRun(20, func() { g.Batch(600, 300) }); a > 4 {
		t.Fatalf("Batch(600, 300) allocates %v times, want <= 4", a)
	}
	const calls = 4096
	a := testing.AllocsPerRun(5, func() {
		for i := 0; i < calls; i++ {
			g.Next()
		}
	})
	if per := a / calls; per > 0.05 {
		t.Fatalf("Next allocates %.3f times per call, want <= 0.05", per)
	}
}
