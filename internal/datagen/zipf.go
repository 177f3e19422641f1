// Package datagen generates skewed TPC-D databases, reproducing the paper's
// modified dbgen ([17]): every non-key column is drawn from a Zipfian
// distribution whose parameter z ranges from 0 (uniform) to 4 (highly
// skewed), and a MIX mode assigns each column a random z in [0,4].
package datagen

import (
	"math"
	"math/rand"
)

// zipf samples ranks 0..n-1 with probability proportional to 1/(rank+1)^z.
// z = 0 degenerates to uniform. Sampling is O(log n) by binary search over
// the precomputed CDF; construction is O(n).
type zipf struct {
	rng *rand.Rand
	n   int
	z   float64
	cdf []float64 // cdf[i] = P(rank <= i); empty when z == 0
}

// newZipf builds a sampler over n ranks with skew z using rng.
func newZipf(rng *rand.Rand, n int, z float64) *zipf {
	if n < 1 {
		n = 1
	}
	s := &zipf{rng: rng, n: n, z: z}
	if z <= 0 {
		return s
	}
	s.cdf = make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), z)
		s.cdf[i] = sum
	}
	inv := 1 / sum
	for i := range s.cdf {
		s.cdf[i] *= inv
	}
	return s
}

// next returns the next sampled rank in [0, n).
func (s *zipf) next() int {
	if s.z <= 0 {
		return s.rng.Intn(s.n)
	}
	u := s.rng.Float64()
	lo, hi := 0, s.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
