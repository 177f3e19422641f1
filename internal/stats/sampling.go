package stats

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"autostats/internal/histogram"
)

// Sampling-based statistics construction. The paper treats sampling ([3],
// [8], [9], [12] in its §2) as complementary to statistics SELECTION: even
// with cheap per-statistic construction, the space of candidate statistics
// is the bottleneck — and §2 notes that building all statistics of a table
// from a single sample introduces unwanted correlation. This implementation
// follows that guidance: each statistic gets its own independent sample,
// drawn with a deterministic per-statistic seed.

// SampleConfig controls sampled construction on a Manager.
type SampleConfig struct {
	// Fraction of rows to sample, in (0, 1]; 0 or 1 disables sampling.
	Fraction float64
	// MinRows floors the sample size so tiny tables stay exact.
	MinRows int
	// Seed makes sampling deterministic (combined with the statistic ID).
	Seed int64
}

// SetSampling enables sampled statistics construction for subsequent
// Create/Refresh calls. Estimated counts are scaled up to the table
// cardinality; distinct counts use the Goodman/"distinct-value scale-up"
// style correction capped by the table size.
func (m *Manager) SetSampling(cfg SampleConfig) error {
	if cfg.Fraction < 0 || cfg.Fraction > 1 {
		return fmt.Errorf("stats: sample fraction %v out of (0,1]", cfg.Fraction)
	}
	if cfg.MinRows <= 0 {
		cfg.MinRows = 100
	}
	m.cfgMu.Lock()
	defer m.cfgMu.Unlock()
	m.sampling = cfg
	return nil
}

// Sampling returns the active sampling configuration (Fraction 0 when
// disabled).
func (m *Manager) Sampling() SampleConfig {
	m.cfgMu.RLock()
	defer m.cfgMu.RUnlock()
	return m.sampling
}

// sampleOrdinals draws the per-statistic sample over the n live rows of one
// scan and returns it as a membership set indexed by live ordinal (the
// position of a row among the scan's live rows); nil means keep every row —
// sampling is off, or the table is at or below the sample-size floor. The
// RNG seed mixes the manager seed with the statistic ID so every statistic
// has an independent sample (§2's correlation concern) that is stable across
// refreshes of the same statistic. The draw depends only on n, never on how
// the scan is blocked or cut, so sampled builds are as deterministic as
// exact ones.
func sampleOrdinals(cfg SampleConfig, id ID, n int) []bool {
	if cfg.Fraction <= 0 || cfg.Fraction >= 1 {
		return nil
	}
	want := int(float64(n) * cfg.Fraction)
	if want < cfg.MinRows {
		want = cfg.MinRows
	}
	if want >= n {
		return nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(hashID(id))))
	// Partial Fisher-Yates over the ordinal space.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	keep := make([]bool, n)
	for i := 0; i < want; i++ {
		j := i + rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
		keep[idx[i]] = true
	}
	return keep
}

func hashID(id ID) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return h.Sum64()
}

// scaleSampled rescales a statistic built from a sample of size sampleN back
// to a population of popN rows: bucket row counts and totals scale linearly;
// distinct counts scale with a first-order estimator d/q capped by both the
// population size and the linear row scale-up.
func scaleSampled(mc *histogram.MultiColumn, sampleN, popN int) {
	if sampleN <= 0 || sampleN >= popN {
		return
	}
	f := float64(popN) / float64(sampleN)
	h := mc.Leading
	var rows int64
	for i := range h.Buckets {
		h.Buckets[i].Rows = int64(float64(h.Buckets[i].Rows)*f + 0.5)
		if h.Buckets[i].Rows < 1 {
			h.Buckets[i].Rows = 1
		}
		d := int64(scaleDistinct(float64(h.Buckets[i].Distinct), f))
		if d > h.Buckets[i].Rows {
			d = h.Buckets[i].Rows
		}
		h.Buckets[i].Distinct = d
		rows += h.Buckets[i].Rows
	}
	h.Rows = rows
	h.NullRows = int64(float64(h.NullRows)*f + 0.5)
	h.Distinct = int64(scaleDistinct(float64(h.Distinct), f))
	if h.Distinct > h.Rows {
		h.Distinct = h.Rows
	}
	for k := range mc.PrefixDistinct {
		dv := int64(scaleDistinct(float64(mc.PrefixDistinct[k]), f))
		if dv > int64(popN) {
			dv = int64(popN)
		}
		mc.PrefixDistinct[k] = dv
		if dv > 0 {
			mc.Densities[k] = 1 / float64(dv)
		}
	}
	mc.Rows = int64(popN)
}

// scaleDistinct applies a damped scale-up: values seen once in the sample
// are likely rare, so pure linear scaling overshoots; the square-root
// interpolation between observed and linear is the classic cheap compromise.
func scaleDistinct(d, f float64) float64 {
	if f <= 1 {
		return d
	}
	scaled := d * (1 + (f-1)/2)
	if lin := d * f; scaled > lin {
		scaled = lin
	}
	return scaled
}
