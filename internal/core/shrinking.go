package core

import (
	"context"
	"sort"

	"autostats/internal/optimizer"
	"autostats/internal/query"
	"autostats/internal/stats"
)

// ShrinkResult reports a Shrinking Set run.
type ShrinkResult struct {
	// Kept is the set that survived, in ID order. It preserves every
	// query's plan but need not be minimal.
	Kept []stats.ID
	// Removed lists the statistics found non-essential, in removal order.
	Removed []stats.ID
	// OptimizerCalls counts optimizations performed (worst case |S|·|W|).
	OptimizerCalls int
}

// ShrinkingSetCtx implements Figure 2: starting from the current statistics set
// S (assumed to be a superset of an essential set, e.g. built by MNSA), test
// each statistic in turn and discard it if hiding it — via the
// Ignore_Statistics_Subset extension — together with those already
// discarded leaves the plan of every potentially relevant workload query
// equivalent to Plan(Q, S) under the given equivalence (execution-tree in the
// paper's Figure 2). What holds is that every query's plan is preserved;
// each removal is verified on its own, in ascending ID order, and a
// statistic kept early is not re-tested after later removals. So the result
// is not minimal in general: on this optimizer some kept sets still have a
// proper subset that preserves every plan (TestShrinkingSet pins how often).
//
// initial nil means "all statistics currently in the manager". The set
// produced depends on the order statistics are tested (§5.2).
//
// ctx is checked between baseline optimizations and between per-statistic
// probe rounds. The algorithm only hides statistics (never mutates the
// manager), so a canceled run leaves no partial state behind.
func ShrinkingSetCtx(ctx context.Context, sess *optimizer.Session, queries []*query.Select, initial []stats.ID, eq Equivalence) (*ShrinkResult, error) {
	mgr := sess.Manager()
	if initial == nil {
		for _, s := range mgr.All() {
			initial = append(initial, s.ID)
		}
	}
	sorted := append([]stats.ID(nil), initial...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	res := &ShrinkResult{}
	reg := sess.Obs()
	probes := reg.Counter("shrink.probes")
	equivChecks := reg.Counter("shrink.equiv_checks")
	sp := reg.StartSpan("shrink.run", func() map[string]any {
		return map[string]any{"stats": len(sorted), "queries": len(queries)}
	})
	defer func() {
		sp.End(func() map[string]any {
			return map[string]any{
				"kept":            len(res.Kept),
				"removed":         len(res.Removed),
				"optimizer_calls": res.OptimizerCalls,
			}
		})
	}()
	reg.Counter("shrink.runs").Inc()

	// Baseline plans Plan(Q, S) under the full initial set.
	baseline := make([]*optimizer.Plan, len(queries))
	for i, q := range queries {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p, err := sess.Optimize(q)
		if err != nil {
			return nil, err
		}
		res.OptimizerCalls++
		baseline[i] = p
	}

	// Precompute per-query relevant columns for the relevance filter in
	// step 4 ("for each query Q in W for which s is potentially relevant").
	relevant := make([]map[string]map[string]bool, len(queries))
	for i, q := range queries {
		relevant[i] = map[string]map[string]bool{}
		for t, cols := range classifyColumns(q).allColumns() {
			m := map[string]bool{}
			for _, c := range cols {
				m[c] = true
			}
			relevant[i][t] = m
		}
	}

	removed := map[stats.ID]bool{}
	hide := func(extra stats.ID) optimizer.WhatIf {
		out := make([]stats.ID, 0, len(removed)+1)
		for id := range removed {
			out = append(out, id)
		}
		return optimizer.WhatIf{Hide: append(out, extra)}
	}

	for _, sid := range sorted {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		st := mgr.Get(sid)
		if st == nil {
			continue
		}
		essentialSomewhere := false
		for i, q := range queries {
			if !statRelevant(st, relevant[i]) {
				continue
			}
			p, err := sess.OptimizeWhatIf(q, hide(sid))
			if err != nil {
				return nil, err
			}
			res.OptimizerCalls++
			probes.Inc()
			equivChecks.Inc()
			if !eq.Equivalent(p, baseline[i]) {
				essentialSomewhere = true
				break
			}
		}
		if !essentialSomewhere {
			removed[sid] = true
			res.Removed = append(res.Removed, sid)
			reg.Counter("shrink.removed").Inc()
		} else {
			reg.Counter("shrink.kept").Inc()
		}
	}

	for _, sid := range sorted {
		if !removed[sid] {
			res.Kept = append(res.Kept, sid)
		}
	}
	return res, nil
}

// statRelevant reports whether any column of the statistic is a relevant
// column of the query (on the statistic's table).
func statRelevant(st *stats.Statistic, rel map[string]map[string]bool) bool {
	cols, ok := rel[st.Table]
	if !ok {
		return false
	}
	for _, c := range st.Columns {
		if cols[c] {
			return true
		}
	}
	return false
}
