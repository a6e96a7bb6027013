package trace

import (
	"fmt"
	"math"

	"liveupdate/internal/tensor"
)

// Sample is one labeled user-item interaction from the synthetic stream.
//
// Ownership: Dense, Sparse and every Sparse[t] of a generated sample are
// capacity-limited views into chunks the Generator carves for many
// neighbouring samples at once. A sample stays valid (and unchanged) across
// later Next/Batch calls, and appending to any of its slices reallocates
// instead of running into the next sample; retaining one sample retains the
// chunks it was carved from.
type Sample struct {
	Time   float64   // virtual time in seconds since stream start
	Dense  []float64 // continuous features
	Sparse [][]int32 // per-table categorical ids (multi-hot)
	Label  int       // 1 = click
}

// Generator produces a deterministic, drifting CTR stream for a Profile.
//
// Ground truth: each table row carries a hidden vector g ∈ R^h and a hidden
// context vector c(t) performs a slow random walk on the unit sphere. The
// click logit is the pooled dot product ⟨ḡ(sample), c(t)⟩ plus a dense-feature
// term, so as c(t) drifts, the optimal embedding-derived scores change and a
// stale model loses accuracy (paper Fig 3b). Popularity churn occasionally
// swaps item ranks to model emerging trends (the "semantically critical but
// low-gradient updates" QuickUpdate misses).
type Generator struct {
	Profile Profile

	rng     *tensor.RNG
	hidden  int
	gTables []*tensor.Matrix // per table: TableSize × hidden ground-truth vectors
	denseW  []float64        // hidden weights for dense features (len NumDense)
	context []float64        // c(t), unit length, drifts over time
	bias    float64

	zipfs   []*tensor.Zipf
	rankMap [][]int32 // per table: popularity rank → item id (churn permutes this)

	now          float64 // virtual seconds
	accessCounts [][]uint64
	emitted      uint64

	pooled []float64 // per-table pooled ground-truth vector (len hidden)

	// Sample storage (see Sample): the unused tails of the current chunks,
	// carved in lockstep, one sample's worth per next().
	dense  []float64 // NumDense per sample
	heads  [][]int32 // NumTables Sparse headers per sample
	ids    []int32   // perIDs per sample
	perIDs int       // Σ MultiHot
}

// chunkSamples is how many samples' storage Next allocates at a time.
const chunkSamples = 256

// NewGenerator builds a generator for profile p seeded from seed.
func NewGenerator(p Profile, seed uint64) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(seed)
	const hidden = 8
	g := &Generator{
		Profile: p,
		rng:     rng,
		hidden:  hidden,
		denseW:  make([]float64, p.NumDense),
		context: make([]float64, hidden),
		pooled:  make([]float64, hidden),
	}
	for _, hot := range p.MultiHot {
		g.perIDs += hot
	}
	for i := 0; i < p.NumTables; i++ {
		g.gTables = append(g.gTables, tensor.RandomMatrix(rng, p.TableSize, hidden, 1))
		g.zipfs = append(g.zipfs, tensor.NewZipf(rng.Split(), p.TableSize, p.ZipfS))
		ranks := make([]int32, p.TableSize)
		for j := range ranks {
			ranks[j] = int32(j)
		}
		g.rankMap = append(g.rankMap, ranks)
		g.accessCounts = append(g.accessCounts, make([]uint64, p.TableSize))
	}
	for i := range g.denseW {
		g.denseW[i] = rng.NormFloat64() * 0.5
	}
	for i := range g.context {
		g.context[i] = rng.NormFloat64()
	}
	normalize(g.context)
	// Bias calibrates the base positive rate: sigmoid(bias) ≈ PositiveRate.
	g.bias = math.Log(p.PositiveRate / (1 - p.PositiveRate))
	return g, nil
}

// MustNewGenerator is NewGenerator that panics on invalid profiles; intended
// for tests and examples with known-good profiles.
func MustNewGenerator(p Profile, seed uint64) *Generator {
	g, err := NewGenerator(p, seed)
	if err != nil {
		panic(err)
	}
	return g
}

// Now returns the current virtual time in seconds.
func (g *Generator) Now() float64 { return g.now }

// Emitted returns the number of samples generated so far.
func (g *Generator) Emitted() uint64 { return g.emitted }

// Advance moves virtual time forward by dt seconds, applying ground-truth
// drift and popularity churn proportional to the elapsed interval.
func (g *Generator) Advance(dt float64) {
	if dt <= 0 {
		return
	}
	g.now += dt
	hours := dt / 3600
	// Random-walk drift on the context vector, scaled so that DriftRate
	// controls expected angular change per hour.
	step := g.Profile.DriftRate * math.Sqrt(hours)
	for i := range g.context {
		g.context[i] += step * g.rng.NormFloat64()
	}
	normalize(g.context)

	// Popularity churn: swap a fraction of rank slots.
	for t := range g.rankMap {
		swaps := int(g.Profile.ChurnPerHour * hours * float64(g.Profile.TableSize))
		for s := 0; s < swaps; s++ {
			a := g.rng.Intn(g.Profile.TableSize)
			b := g.rng.Intn(g.Profile.TableSize)
			g.rankMap[t][a], g.rankMap[t][b] = g.rankMap[t][b], g.rankMap[t][a]
		}
	}
}

// reserve makes sure the chunks hold storage for need more samples, replacing
// them with fresh ones sized for size samples when they do not (what is left
// of the old chunks is dropped).
func (g *Generator) reserve(need, size int) {
	p := g.Profile
	if len(g.heads) >= need*p.NumTables {
		return
	}
	g.dense = make([]float64, size*p.NumDense)
	g.heads = make([][]int32, size*p.NumTables)
	g.ids = make([]int32, size*g.perIDs)
}

// Next generates the next sample at the current virtual time.
func (g *Generator) Next() Sample {
	g.reserve(1, chunkSamples)
	return g.next()
}

// next carves one sample out of the reserved chunks and fills it.
func (g *Generator) next() Sample {
	p := g.Profile
	nd, nt := p.NumDense, p.NumTables
	s := Sample{Time: g.now, Dense: g.dense[:nd:nd], Sparse: g.heads[:nt:nt]}
	g.dense, g.heads = g.dense[nd:], g.heads[nt:]
	for i := range s.Dense {
		s.Dense[i] = g.rng.NormFloat64()
	}
	logit := g.bias
	pooled := g.pooled
	for t := 0; t < nt; t++ {
		hot := p.MultiHot[t]
		ids := g.ids[:hot:hot]
		g.ids = g.ids[hot:]
		clear(pooled)
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
	logit += denseSig * g.context[0] // dense contribution also drifts

	prob := sigmoid(logit)
	if g.rng.Float64() < prob {
		s.Label = 1
	}
	g.emitted++
	return s
}

// Batch generates n samples and advances virtual time by dt seconds spread
// evenly across them, modeling a steady arrival rate within the batch.
func (g *Generator) Batch(n int, dt float64) []Sample {
	if n <= 0 {
		return nil
	}
	g.reserve(n, n)
	out := make([]Sample, n)
	per := dt / float64(n)
	for i := range out {
		out[i] = g.next()
		g.Advance(per)
	}
	return out
}

// AccessCounts returns per-table, per-id access counts accumulated so far.
// The returned slices alias internal state; callers must not modify them.
func (g *Generator) AccessCounts() [][]uint64 { return g.accessCounts }

// ResetAccessCounts zeroes the access statistics.
func (g *Generator) ResetAccessCounts() {
	for _, c := range g.accessCounts {
		for i := range c {
			c[i] = 0
		}
	}
}

// ContextSnapshot returns a copy of the current ground-truth context vector;
// used by tests to verify drift behavior.
func (g *Generator) ContextSnapshot() []float64 {
	return append([]float64(nil), g.context...)
}

// RequestRateAt returns the instantaneous request rate (requests/second) at
// virtual time tSec, combining the profile's sustained load with the diurnal
// curve normalized to average 1.0.
func (g *Generator) RequestRateAt(tSec float64) float64 {
	base := float64(g.Profile.RequestsPer5Min) / 300
	hour := math.Mod(tSec/3600, 24)
	return base * DiurnalLoadFactor(hour)
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

func normalize(v []float64) {
	n := tensor.Norm2(v)
	if n == 0 {
		v[0] = 1
		return
	}
	for i := range v {
		v[i] /= n
	}
}

// String implements fmt.Stringer for debugging.
func (g *Generator) String() string {
	return fmt.Sprintf("trace.Generator{%s, t=%.0fs, emitted=%d}",
		g.Profile.Name, g.now, g.emitted)
}
