package optimizer

import (
	"fmt"
	"maps"
	"math/rand"

	"autostats/internal/query"
)

// relCostTol absorbs float noise: monotonicity is exact over the reals, but
// the optimizer sums per-operator costs in plan-dependent orders.
const relCostTol = 1e-9

// monotonicityGrid is the ascending sweep of each variable in
// CheckMonotonicity: from the selectivity floor to 1−floor, log-spaced below
// 0.1 and linear above, through the magic numbers (0.10, 0.30, 0.90) where
// plan flips concentrate.
var monotonicityGrid = []float64{
	minSelectivity, 1e-5, 1e-4, 1e-3, 0.01, 0.05,
	0.10, 0.20, 0.30, 0.50, 0.70, 0.90, 0.99, 1 - 1e-4, 1 - minSelectivity,
}

// monotonicityPairs is the number of random assignments u ≤ v
// CheckMonotonicity compares per query.
const monotonicityPairs = 150

// CheckMonotonicity checks the premise MNSA's extreme-plan bracket rests on
// (§4): the optimal cost is non-decreasing in every selectivity variable q
// leaves on a magic number at sess's statistics. Each plan's cost is
// monotone in each variable and the optimum is their pointwise minimum, so
// the optimum is monotone too. Each variable in turn sweeps monotonicityGrid
// with the others at a random point in [0.05, 0.95], and monotonicityPairs
// random assignments u ≤ v of all of them are compared. rng draws the
// points. It returns the number of comparisons made and one line per
// violation: the first on each sweep, and the first failing pair.
func CheckMonotonicity(sess *Session, q *query.Select, rng *rand.Rand) (int, []string, error) {
	p, err := sess.Optimize(q)
	if err != nil {
		return 0, nil, err
	}
	vars := p.MissingVars
	cost := func(ov map[int]float64) (float64, error) {
		p, err := sess.OptimizeWhatIf(q, WhatIf{Overrides: ov})
		if err != nil {
			return 0, err
		}
		return p.Cost(), nil
	}
	checks := 0
	var violations []string

	base := make(map[int]float64, len(vars))
	for _, v := range vars {
		base[v] = 0.05 + 0.9*rng.Float64()
	}
	for _, v := range vars {
		ov := maps.Clone(base)
		prev := 0.0
		for i, sel := range monotonicityGrid {
			ov[v] = sel
			c, err := cost(ov)
			if err != nil {
				return checks, violations, err
			}
			if i > 0 {
				if checks++; c < prev*(1-relCostTol) {
					violations = append(violations, fmt.Sprintf("cost fell on var %d: C(%g)=%.6f > C(%g)=%.6f", v, monotonicityGrid[i-1], prev, sel, c))
					break
				}
			}
			prev = c
		}
	}

	for i := 0; len(vars) > 0 && i < monotonicityPairs; i++ {
		u := make(map[int]float64, len(vars))
		w := make(map[int]float64, len(vars))
		for _, v := range vars {
			a := rng.Float64()
			u[v], w[v] = a, a+rng.Float64()*(1-a)
		}
		cu, err := cost(u)
		if err != nil {
			return checks, violations, err
		}
		cw, err := cost(w)
		if err != nil {
			return checks, violations, err
		}
		if checks++; cu > cw*(1+relCostTol) {
			violations = append(violations, fmt.Sprintf("cost fell from u to v ≥ u: C(u)=%.6f > C(v)=%.6f at u=%v v=%v", cu, cw, u, w))
			break
		}
	}
	return checks, violations, nil
}
