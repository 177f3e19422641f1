package core

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"autostats/internal/optimizer"
	"autostats/internal/query"
	"autostats/internal/stats"
)

const (
	// relCostTol absorbs float noise where a comparison is exact over the
	// reals: the optimizer sums per-operator costs in plan-dependent orders.
	relCostTol = 1e-9
	// bracketTol is the slack of the real plan's comparisons: its estimates
	// come through histograms, the pinned plans' through overrides, and the
	// two need not agree to the last bits (a 2e-7 relative excess over the
	// upper end occurs in the z = 4 MNSA workloads).
	bracketTol = 1e-3
	// bracketSamples is the number of interior assignments CheckBracket
	// prices per query.
	bracketSamples = 5
	// maxExactCandidates bounds the candidate sets CheckShrinkingSet
	// searches subset by subset.
	maxExactCandidates = 12
)

// CheckBracket checks MNSA's central inference (§4) for q at the statistics
// sess holds, with the variables q leaves on magic numbers pinned at
// cfg.Epsilon (P_low) and 1−cfg.Epsilon (P_high):
//
//   - Cost(P_low) ≤ Cost(P_high), and random interior assignments cost
//     between them;
//   - ground truth: with every candidate statistic built, the real plan
//     costs inside the bracket pinned at 0 and 1 (a real selectivity may
//     leave [ε, 1−ε], down to the estimator's floor), and within t of
//     Cost(P_low) when the extremes are t-equivalent — the verdict MNSA
//     draws without building anything;
//   - MNSA run from this state stops truthfully: TermNoMissing only with no
//     variable missing, TermEquivalent only with some missing and their
//     extremes t-equivalent.
//
// The ground truth's statistics are dropped before MNSA runs, so sess ends
// up holding what it held plus what MNSA built. If Cost(P_low) exceeds
// Cost(P_high) nothing else is checked. rng draws the interior assignments.
// It returns the number of comparisons made and one line per violation.
func CheckBracket(ctx context.Context, sess *optimizer.Session, q *query.Select, cfg Config, rng *rand.Rand) (int, []string, error) {
	cfg = cfg.withDefaults()
	teq := tOptimizerCost{T: cfg.T}
	checks := 0
	var violations []string
	fail := func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}
	pin := func(vars []int, sel func() float64) (*optimizer.Plan, error) {
		ov := make(map[int]float64, len(vars))
		for _, v := range vars {
			ov[v] = sel()
		}
		return sess.OptimizeWhatIf(q, optimizer.WhatIf{Overrides: ov})
	}
	extremes := func(vars []int, eps float64) (lo, hi *optimizer.Plan, err error) {
		if lo, err = pin(vars, func() float64 { return eps }); err == nil {
			hi, err = pin(vars, func() float64 { return 1 - eps })
		}
		return lo, hi, err
	}

	p, err := sess.Optimize(q)
	if err != nil {
		return 0, nil, err
	}
	if missing := p.MissingVars; len(missing) > 0 {
		pLow, pHigh, err := extremes(missing, cfg.Epsilon)
		if err != nil {
			return 0, nil, err
		}
		lo, hi := pLow.Cost(), pHigh.Cost()
		if checks++; lo > hi*(1+relCostTol) {
			fail("Cost(P_low)=%.6f exceeds Cost(P_high)=%.6f", lo, hi)
			return checks, violations, nil
		}
		for i := 0; i < bracketSamples; i++ {
			p, err := pin(missing, func() float64 { return cfg.Epsilon + (1-2*cfg.Epsilon)*rng.Float64() })
			if err != nil {
				return checks, violations, err
			}
			if checks++; p.Cost() < lo*(1-relCostTol) || p.Cost() > hi*(1+relCostTol) {
				fail("interior cost %.6f outside [%.6f, %.6f]", p.Cost(), lo, hi)
				break
			}
		}
		floorLow, floorHigh, err := extremes(missing, 0)
		if err != nil {
			return checks, violations, err
		}
		full, err := groundTruth(ctx, sess, q, cfg)
		if err != nil {
			return checks, violations, err
		}
		c, fl, fh := full.Cost(), floorLow.Cost(), floorHigh.Cost()
		if checks++; c < fl*(1-bracketTol) || c > fh*(1+bracketTol) {
			fail("full-statistics cost %.6f outside [%.6f, %.6f], the bracket at the estimator's range", c, fl, fh)
		} else if teq.Equivalent(pLow, pHigh) {
			if checks++; lo > 0 && (c-lo)/lo > teq.T/100+bracketTol {
				fail("extremes t-equivalent but full-statistics cost %.6f is %.1f%% above P_low %.6f", c, 100*(c-lo)/lo, lo)
			}
		}
	}

	res, err := RunMNSA(ctx, sess, q, cfg)
	if err != nil {
		return checks, violations, err
	}
	final, err := sess.Optimize(q)
	if err != nil {
		return checks, violations, err
	}
	checks++
	switch missing := final.MissingVars; res.TerminatedBy {
	case TermNoMissing:
		if len(missing) != 0 {
			fail("MNSA stopped on %s but variables %v are still missing", res.TerminatedBy, missing)
		}
	case TermEquivalent:
		if len(missing) == 0 {
			fail("MNSA stopped on %s with no variable missing", res.TerminatedBy)
			break
		}
		pLow, pHigh, err := extremes(missing, cfg.Epsilon)
		if err != nil {
			return checks, violations, err
		}
		if !teq.Equivalent(pLow, pHigh) {
			fail("MNSA stopped on %s but the extremes cost %.6f and %.6f", res.TerminatedBy, pLow.Cost(), pHigh.Cost())
		}
	case TermNoCandidates:
		// Candidates ran out with variables still missing.
	default:
		fail("MNSA stopped on unknown reason %q", res.TerminatedBy)
	}
	return checks, violations, nil
}

// groundTruth plans q with every candidate statistic built, then drops the
// ones it had to build.
func groundTruth(ctx context.Context, sess *optimizer.Session, q *query.Select, cfg Config) (*optimizer.Plan, error) {
	mgr := sess.Manager()
	var built []stats.ID
	defer func() {
		for _, id := range built {
			mgr.Drop(id)
		}
	}()
	for _, c := range cfg.CandidateFn(q) {
		_, ok, err := mgr.EnsureCtx(ctx, c.Table, c.Columns)
		if err != nil {
			return nil, fmt.Errorf("core: building candidate %s: %w", c.ID(), err)
		}
		if ok {
			built = append(built, c.ID())
		}
	}
	return sess.Optimize(q)
}

// ShrinkCheck is CheckShrinkingSet's verdict on one batch.
type ShrinkCheck struct {
	// Kept is the set Shrinking Set kept, in ID order.
	Kept []stats.ID
	// Violations has one line per query whose plan Kept does not preserve.
	Violations []string
	// Removable lists the kept statistics that can go on their own.
	Removable []stats.ID
	// Exact reports that the batch had at most maxExactCandidates
	// candidates, so NotEssential and Minimum were searched.
	Exact bool
	// NotEssential reports that a proper subset of Kept preserves every
	// plan: Kept is not essential by Definition 1.
	NotEssential bool
	// Minimum is the size of the smallest preserving candidate subset.
	Minimum int
}

// CheckShrinkingSet builds every candidate statistic of the batch on sess,
// which should hold no statistics yet, runs Shrinking Set (Figure 2) under
// eq, and checks what it kept: that it preserves every query's plan (the
// algorithm verified each removal on its own, in ID order), which kept
// statistics could still go one at a time, and — with at most
// maxExactCandidates candidates — whether a proper subset of the kept set
// preserves every plan (Definition 1, §3.3) and how small the smallest
// preserving subset is. Only the first is guaranteed; the others measure how
// far one pass is from minimal.
func CheckShrinkingSet(ctx context.Context, sess *optimizer.Session, queries []*query.Select, eq Equivalence) (*ShrinkCheck, error) {
	mgr := sess.Manager()
	for _, c := range WorkloadCandidates(queries, CandidateStats) {
		if _, _, err := mgr.EnsureCtx(ctx, c.Table, c.Columns); err != nil {
			return nil, fmt.Errorf("core: building candidate %s: %w", c.ID(), err)
		}
	}
	baseline := make([]*optimizer.Plan, len(queries))
	for i, q := range queries {
		p, err := sess.Optimize(q)
		if err != nil {
			return nil, err
		}
		baseline[i] = p
	}
	res, err := ShrinkingSetCtx(ctx, sess, queries, nil, eq)
	if err != nil {
		return nil, err
	}
	ck := &ShrinkCheck{Kept: res.Kept}
	all := append(slices.Clone(res.Kept), res.Removed...)

	// preserves reports whether every plan survives with only visible
	// left; with report set it records each plan that changed.
	preserves := func(visible []stats.ID, report bool) (bool, error) {
		var hide []stats.ID
		for _, id := range all {
			if !slices.Contains(visible, id) {
				hide = append(hide, id)
			}
		}
		ok := true
		for i, q := range queries {
			p, err := sess.OptimizeWhatIf(q, optimizer.WhatIf{Hide: hide})
			if err != nil {
				return false, err
			}
			if eq.Equivalent(p, baseline[i]) {
				continue
			}
			if ok = false; !report {
				break
			}
			ck.Violations = append(ck.Violations, fmt.Sprintf("%s: plan changed with %d of %d statistics kept:\n  before: %s\n  after:  %s",
				q.SQL(), len(res.Kept), len(all), baseline[i].Signature(), p.Signature()))
		}
		return ok, nil
	}

	if _, err := preserves(res.Kept, true); err != nil {
		return nil, err
	}
	for i, s := range res.Kept {
		ok, err := preserves(slices.Delete(slices.Clone(res.Kept), i, i+1), false)
		if err != nil {
			return nil, err
		}
		if ok {
			ck.Removable = append(ck.Removable, s)
		}
	}
	if ck.Exact = len(all) <= maxExactCandidates; !ck.Exact {
		return ck, nil
	}
	for mask := 0; mask < 1<<len(res.Kept)-1 && !ck.NotEssential; mask++ {
		if ck.NotEssential, err = preserves(subset(res.Kept, mask), false); err != nil {
			return nil, err
		}
	}
	for ; ck.Minimum < len(res.Kept); ck.Minimum++ {
		for mask := 0; mask < 1<<len(all); mask++ {
			if bits.OnesCount(uint(mask)) != ck.Minimum {
				continue
			}
			ok, err := preserves(subset(all, mask), false)
			if err != nil {
				return nil, err
			}
			if ok {
				return ck, nil
			}
		}
	}
	return ck, nil
}

// subset returns the members of ids whose positions are set in mask.
func subset(ids []stats.ID, mask int) []stats.ID {
	var out []stats.ID
	for i, id := range ids {
		if mask&(1<<i) != 0 {
			out = append(out, id)
		}
	}
	return out
}
