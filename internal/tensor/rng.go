package tensor

// Deterministic pseudo-random number generation for reproducible experiments.
//
// All randomness in the repository flows through RNG so that every experiment
// is exactly reproducible from a seed. The generator is xoshiro256**, seeded
// via SplitMix64 as recommended by its authors.

import "math"

// RNG is a deterministic pseudo-random number generator (xoshiro256**).
// It is not safe for concurrent use; create one per goroutine via Split.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split derives an independent generator from the current state. The parent
// stream advances, so successive Split calls yield distinct children.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xa0761d6478bd642f)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a normally distributed value (mean 0, stddev 1) using
// the Box–Muller transform.
func (r *RNG) NormFloat64() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Zipf samples from a Zipf distribution over [0, n) with exponent s > 0
// using inverse-CDF over precomputed weights held by the caller; see
// NewZipf for the sampler type.
type Zipf struct {
	rng *RNG
	cdf []float64
}

// NewZipf builds a Zipf sampler over n items with exponent s. Item 0 is the
// most popular. The construction is O(n); sampling is O(log n).
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("tensor: NewZipf called with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	return &Zipf{rng: rng, cdf: cdf}
}

// Next samples the next item id in [0, n).
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
