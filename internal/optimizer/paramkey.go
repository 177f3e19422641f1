package optimizer

import (
	"math"

	"autostats/internal/query"
)

// This file computes the parameterized half of the plan-cache key: the
// statement template and the per-constant selectivity buckets.
//
// Lifting constants out of the key is what makes the cache hit on the
// repeated-template workloads the MNSA loop generates, but it is only safe
// if a constant in a different selectivity regime cannot be served a plan
// costed for another regime: the access-path and join-order decisions hinge
// on those selectivities. So each lifted constant contributes the
// power-of-two bucket of the selectivity estimate the optimizer itself would
// use — probed through the same visible-statistics pipeline as filterSel.
// Constants in the same bucket are within a factor of two of each other,
// comfortably inside estimate-grade noise; constants in different regimes
// get different keys and fresh optimizations. The histogram (or, without
// one, the magic number) is the optimizer's only selectivity source, so the
// bucket of its estimate is all of the constant the key needs to carry.

// filterBucket quantizes the selectivity estimate for one filter constant.
// The probe mirrors filterSel's statistics path: the first statistic whose
// leading column matches estimates the predicate through its histogram (the
// cache is only consulted with an empty WhatIf, so every statistic is
// visible). With no statistic the estimate falls back to a magic number,
// which does not depend on the constant, so all such constants share the
// bucketMissing sentinel.
func (s *Session) filterBucket(f query.Filter) int8 {
	if sts := s.prov.StatsForColumn(f.Col.Table, f.Col.Column); len(sts) > 0 {
		return quantizeSel(clampSel(histogramOpSel(sts[0].Data.Leading, f.Op, f.Val)))
	}
	return bucketMissing
}

// quantizeSel maps a clamped selectivity to its power-of-two regime:
// 0 for (0.5, 1], -1 for (0.25, 0.5], … down to -20 at the MinSelectivity
// floor. One bucket per doubling matches the granularity at which the cost
// model's decisions (e.g. the scan-vs-seek flip around 1/CostRowFetch) can
// plausibly move.
func quantizeSel(sel float64) int8 {
	b := math.Floor(math.Log2(sel))
	if b < -20 {
		b = -20
	}
	if b > 0 {
		b = 0
	}
	return int8(b)
}

// planBuckets returns the bucket vector for q's lifted constants.
func (s *Session) planBuckets(q *query.Select) [maxCachedParams]int8 {
	var buckets [maxCachedParams]int8
	for i, f := range q.Filters {
		if i >= maxCachedParams {
			break
		}
		buckets[i] = s.filterBucket(f)
	}
	return buckets
}
