package core

import (
	"fmt"

	"autostats/internal/optimizer"
	"autostats/internal/query"
	"autostats/internal/stats"
)

// planWithVisible optimizes q as if only the statistics in visible existed,
// by hiding every other statistic in the manager (the §7.2 interface).
func planWithVisible(sess *optimizer.Session, q *query.Select, visible map[stats.ID]bool) (*optimizer.Plan, error) {
	var ignore []stats.ID
	for _, st := range sess.Manager().All() {
		if !visible[st.ID] {
			ignore = append(ignore, st.ID)
		}
	}
	return sess.OptimizeWhatIf(q, optimizer.WhatIf{Hide: ignore})
}

// isEssentialSet verifies Definition 1 directly: S (a subset of the
// candidate set C, all of which must already be built in the manager) is an
// essential set for q iff S is equivalent to C and no single-statistic
// removal preserves equivalence. It returns a human-readable reason when the
// check fails.
//
// This is an exponential-free but optimizer-call-heavy check (1 + 1 + |S|
// optimizations) intended for validation and tests, not production tuning —
// production uses MNSA + Shrinking Set, which avoid building C at all.
func isEssentialSet(sess *optimizer.Session, q *query.Select, S, C []stats.ID, eq Equivalence) (bool, string, error) {
	mgr := sess.Manager()
	inC := map[stats.ID]bool{}
	for _, id := range C {
		if !mgr.Has(id) {
			return false, "", fmt.Errorf("core: candidate statistic %s is not built; Definition 1 requires the full candidate set", id)
		}
		inC[id] = true
	}
	inS := map[stats.ID]bool{}
	for _, id := range S {
		if !inC[id] {
			return false, fmt.Sprintf("%s is in S but not in the candidate set C", id), nil
		}
		inS[id] = true
	}

	planC, err := planWithVisible(sess, q, inC)
	if err != nil {
		return false, "", err
	}
	planS, err := planWithVisible(sess, q, inS)
	if err != nil {
		return false, "", err
	}
	if !eq.Equivalent(planS, planC) {
		return false, fmt.Sprintf("S is not %s-equivalent to C", eq.Name()), nil
	}
	// Minimality: removing any single statistic must break equivalence.
	// (Definition 1 demands no proper subset is equivalent; under the
	// monotone-information assumption of §3.3 it suffices to check the
	// maximal proper subsets S−{s}.)
	for _, id := range S {
		sub := map[stats.ID]bool{}
		for _, other := range S {
			if other != id {
				sub[other] = true
			}
		}
		planSub, err := planWithVisible(sess, q, sub)
		if err != nil {
			return false, "", err
		}
		if eq.Equivalent(planSub, planC) {
			return false, fmt.Sprintf("S−{%s} is still equivalent to C, so S is not minimal", id), nil
		}
	}
	return true, "", nil
}
