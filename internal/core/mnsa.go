package core

import (
	"context"
	"fmt"

	"autostats/internal/obs"
	"autostats/internal/optimizer"
	"autostats/internal/query"
	"autostats/internal/stats"
)

// Config parameterizes MNSA (Figure 1) and its MNSA/D variant (§5.1).
type Config struct {
	// T is the t-optimizer-cost equivalence threshold in percent. The
	// paper's experiments use 20 (§8.2: "a value of t = 20% is a
	// conservative choice").
	T float64
	// Epsilon pins the extreme selectivities of P_low and P_high. MNSA
	// guarantees essential-set inclusion only for predicate selectivities
	// within [ε, 1−ε], so it should be small; the paper uses 0.0005.
	Epsilon float64
	// CandidateFn proposes candidate statistics for a query
	// (CandidateStats by default; SingleColumnCandidates or ExhaustiveStats
	// for the experiment variants).
	CandidateFn func(*query.Select) []Candidate
	// Drop enables MNSA/D: after each statistic is created, if the plan is
	// unchanged (the same execution tree) the statistic is heuristically
	// drop-listed.
	Drop bool
	// NextStatFn overrides the next-statistic heuristic (§4.2's
	// most-expensive-operator rule by default). Used by ablation benches.
	NextStatFn NextStatFunc
}

// NextStatFunc picks the next build unit from the remaining candidates given
// the current default-magic-number plan and the missing variable IDs.
type NextStatFunc func(p *optimizer.Plan, cands []Candidate, mgr *stats.Manager, consumed map[stats.ID]bool, missing []int) []Candidate

// mnsaMetrics bundles the counters one MNSA run reports: how often the loop
// ran, how many optimizer calls it cost (the paper's overhead metric), how
// many extreme-plan re-optimizations and t-equivalence checks it performed,
// and how many build units it actually consumed.
type mnsaMetrics struct {
	runs           *obs.Counter
	iterations     *obs.Counter
	optimizerCalls *obs.Counter
	extremeReopts  *obs.Counter
	tequivChecks   *obs.Counter
	droplistAdds   *obs.Counter
	resurrections  *obs.Counter
	buildFailures  *obs.Counter
	degradedRuns   *obs.Counter
	unitsConsumed  *obs.FloatCounter
}

func newMNSAMetrics(reg *obs.Registry) mnsaMetrics {
	return mnsaMetrics{
		runs:           reg.Counter("mnsa.runs"),
		iterations:     reg.Counter("mnsa.iterations"),
		optimizerCalls: reg.Counter("mnsa.optimizer_calls"),
		extremeReopts:  reg.Counter("mnsa.extreme_reopts"),
		tequivChecks:   reg.Counter("mnsa.tequiv.checks"),
		droplistAdds:   reg.Counter("mnsa.droplist.adds"),
		resurrections:  reg.Counter("mnsa.resurrections"),
		buildFailures:  reg.Counter("mnsa.build_failures"),
		degradedRuns:   reg.Counter("degraded.mnsa_runs"),
		unitsConsumed:  reg.FloatCounter("mnsa.units_consumed"),
	}
}

// DefaultConfig returns the paper's experimental configuration: t = 20 %,
// ε = 0.0005, §7.1 candidates, no dropping.
func DefaultConfig() Config {
	return Config{
		T:           20,
		Epsilon:     0.0005,
		CandidateFn: CandidateStats,
	}
}

// withDefaults fills each unset field of c from DefaultConfig.
func (c Config) withDefaults() Config {
	def := DefaultConfig()
	if c.T <= 0 {
		c.T = def.T
	}
	if c.Epsilon <= 0 {
		c.Epsilon = def.Epsilon
	}
	if c.CandidateFn == nil {
		c.CandidateFn = def.CandidateFn
	}
	return c
}

// Termination describes why an MNSA run stopped.
type Termination string

// Termination reasons.
const (
	// TermEquivalent: P_low and P_high became t-optimizer-cost equivalent —
	// the existing statistics include an essential set (the success path).
	TermEquivalent Termination = "equivalent"
	// TermNoMissing: every selectivity variable is covered by statistics.
	TermNoMissing Termination = "no-missing-vars"
	// TermNoCandidates: candidates are exhausted (step 9 of Figure 1).
	TermNoCandidates Termination = "no-candidates"
)

// Result reports one MNSA run.
type Result struct {
	// Created lists statistics physically built (or resurrected), in order.
	Created []stats.ID
	// DropListed lists statistics MNSA/D identified as non-essential.
	DropListed []stats.ID
	// Resurrected lists drop-listed statistics found load-bearing for this
	// query's final plan and removed from the drop-list (§5: "if the
	// statistic s is subsequently found to be useful for another query ...
	// it can simply be removed from the drop-list").
	Resurrected []stats.ID
	// OptimizerCalls counts full optimizations performed (the paper's
	// overhead metric: three calls per created statistic).
	OptimizerCalls int
	// Iterations counts loop iterations.
	Iterations int
	// TerminatedBy records the loop exit reason.
	TerminatedBy Termination
	// BuildFailures lists statistics the run wanted but could not build.
	// The run is degraded when non-empty: the affected selectivity
	// variables were planned on default magic numbers.
	BuildFailures []BuildFailure
}

// Degraded reports whether the run could not build every statistic it
// wanted.
func (r *Result) Degraded() bool { return len(r.BuildFailures) > 0 }

// BuildFailure records one statistic an MNSA run could not build and why.
type BuildFailure struct {
	ID  stats.ID
	Err error
}

// RunMNSA creates statistics for q per Figure 1: repeatedly test whether the
// current statistics include an essential set via magic number sensitivity
// analysis, and if not, build the statistic most likely to matter (the
// most-expensive-operator heuristic of §4.2). Join-column statistics are
// created in dependent pairs. With cfg.Drop it is MNSA/D (§5.1), which also
// drop-lists the statistics it finds non-essential.
//
// ctx is checked at every loop iteration and flows into each statistic
// build, so a canceled analysis stops at the next boundary with manager state
// reflecting exactly the builds that completed (each build is individually
// atomic). A build that fails with ctx still live does not fail the analysis:
// it is recorded in Result.BuildFailures and the run continues degraded.
func RunMNSA(ctx context.Context, sess *optimizer.Session, q *query.Select, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	mgr := sess.Manager()
	reg := sess.Obs()
	met := newMNSAMetrics(reg)
	met.runs.Inc()
	sp := reg.StartSpan("mnsa.run", func() map[string]any { return map[string]any{"sql": q.SQL()} })
	res := &Result{TerminatedBy: TermNoCandidates}
	defer func() {
		if res.Degraded() {
			met.degradedRuns.Inc()
		}
		sp.End(func() map[string]any {
			return map[string]any{
				"created":         len(res.Created),
				"drop_listed":     len(res.DropListed),
				"optimizer_calls": res.OptimizerCalls,
				"terminated_by":   string(res.TerminatedBy),
				"build_failures":  len(res.BuildFailures),
			}
		})
	}()

	// A failed build degrades the analysis instead of failing it: the
	// variables the statistic would have covered stay pinned on the default
	// magic numbers — the same fallback the sensitivity analysis itself
	// reasons about — and the failure is recorded in res.BuildFailures.
	// ensure returns ok=false for such a failure; only cancellation of ctx
	// propagates.
	ensure := func(c Candidate) (ok bool, err error) {
		s, built, err := mgr.EnsureCtx(ctx, c.Table, c.Columns)
		if err != nil {
			if ctx.Err() != nil {
				return false, fmt.Errorf("core: creating %s: %w", c.ID(), err)
			}
			res.BuildFailures = append(res.BuildFailures, BuildFailure{ID: c.ID(), Err: err})
			met.buildFailures.Inc()
			return false, nil
		}
		if built {
			met.unitsConsumed.Add(s.BuildCost)
		}
		return true, nil
	}

	// consumed tracks candidates no longer available this run (picked
	// once, whether built, already existing, or failed).
	cands := cfg.CandidateFn(q)
	consumed := make(map[stats.ID]bool, len(cands))

	p, err := sess.Optimize(q) // step 2: plan with default magic numbers
	if err != nil {
		return nil, err
	}
	res.OptimizerCalls++
	met.optimizerCalls.Inc()

	// finish resurrects drop-listed statistics that this query's final plan
	// depends on (§5): hide each one in turn and re-optimize; if the plan
	// degrades beyond the t threshold, the statistic is useful after all and
	// leaves the drop-list. t-optimizer-cost (not execution-tree) keeps the
	// rescue targeted: a cosmetic plan change is not worth re-maintaining a
	// statistic, a t-significant cost regression is.
	finish := func(final *optimizer.Plan) (*Result, error) {
		if !cfg.Drop {
			return res, nil
		}
		for _, id := range final.UsedStats {
			if !mgr.IsDropListed(id) {
				continue
			}
			probe, err := sess.OptimizeWhatIf(q, optimizer.WhatIf{Hide: []stats.ID{id}})
			if err != nil {
				return nil, err
			}
			res.OptimizerCalls++
			met.optimizerCalls.Inc()
			// Rescue when the statistic's absence changes the execution
			// tree. Estimated-cost deltas are not a usable signal here:
			// hiding a statistic swaps histogram estimates for magic
			// numbers, moving the estimate in either direction regardless
			// of whether the plan materially changed.
			if !(ExecutionTree{}).Equivalent(probe, final) {
				mgr.RemoveFromDropList(id)
				res.Resurrected = append(res.Resurrected, id)
				met.resurrections.Inc()
			}
		}
		return res, nil
	}

	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.Iterations++
		met.iterations.Inc()
		// Step 4: selectivity variables forced onto magic numbers in the
		// default-magic plan.
		missing := p.MissingVars
		if len(missing) == 0 {
			res.TerminatedBy = TermNoMissing
			return finish(p)
		}
		// Steps 5-6: the extreme plans.
		low := make(map[int]float64, len(missing))
		high := make(map[int]float64, len(missing))
		for _, v := range missing {
			low[v] = cfg.Epsilon
			high[v] = 1 - cfg.Epsilon
		}
		pLow, err := sess.OptimizeWhatIf(q, optimizer.WhatIf{Overrides: low})
		if err != nil {
			return nil, err
		}
		pHigh, err := sess.OptimizeWhatIf(q, optimizer.WhatIf{Overrides: high})
		if err != nil {
			return nil, err
		}
		res.OptimizerCalls += 2
		met.optimizerCalls.Add(2)
		met.extremeReopts.Add(2)
		// Step 7: t-optimizer-cost equivalence of the extremes implies the
		// existing set includes an essential set (by cost monotonicity).
		met.tequivChecks.Inc()
		if (tOptimizerCost{T: cfg.T}).Equivalent(pLow, pHigh) {
			res.TerminatedBy = TermEquivalent
			return finish(p)
		}
		// Step 8: pick the next statistic(s) from the default-magic plan.
		nextFn := cfg.NextStatFn
		if nextFn == nil {
			nextFn = findNextStatToBuild
		}
		// Step 10: build the unit (a single statistic, or a dependent pair
		// for join columns). When every build of the unit fails nothing
		// changed — the plan, the missing variables and the extremes are all
		// as before — so re-optimizing would waste a call and re-testing the
		// extremes would loop forever on the same answer; instead keep
		// picking until something is actually built or candidates run out.
		var builtIDs []stats.ID
		for len(builtIDs) == 0 {
			unit := nextFn(p, cands, mgr, consumed, missing)
			if len(unit) == 0 {
				res.TerminatedBy = TermNoCandidates
				return finish(p)
			}
			for _, c := range unit {
				consumed[c.ID()] = true
				ok, err := ensure(c)
				if err != nil {
					return nil, err
				}
				if !ok {
					// Failed build: the candidate is consumed (no point
					// re-picking it this run) but nothing was built, so the
					// loop keeps looking for another unit. If everything
					// fails, the run terminates by candidate exhaustion with
					// the missing variables still on magic numbers.
					continue
				}
				res.Created = append(res.Created, c.ID())
				builtIDs = append(builtIDs, c.ID())
			}
		}
		// Steps 11-12: re-optimize with default magic numbers.
		pNew, err := sess.Optimize(q)
		if err != nil {
			return nil, err
		}
		res.OptimizerCalls++
		met.optimizerCalls.Inc()
		// MNSA/D (§5.1): if creating the statistic left the plan
		// equivalent, heuristically mark it non-essential.
		if cfg.Drop && len(builtIDs) > 0 && (ExecutionTree{}).Equivalent(pNew, p) {
			for _, id := range builtIDs {
				if mgr.AddToDropList(id) {
					res.DropListed = append(res.DropListed, id)
					met.droplistAdds.Inc()
				}
			}
		}
		p = pNew
	}
}

// WorkloadResult aggregates MNSA runs over a workload.
type WorkloadResult struct {
	PerQuery       []*Result
	Created        []stats.ID
	DropListed     []stats.ID
	OptimizerCalls int
	// BuildFailures aggregates the per-query build failures; the workload
	// pass is degraded when non-empty.
	BuildFailures []BuildFailure
}

// Degraded reports whether any query of the workload ran degraded.
func (wr *WorkloadResult) Degraded() bool { return len(wr.BuildFailures) > 0 }

// RunMNSAWorkloadCtx invokes MNSA for each query in order (§4.3: "a
// sufficient set of statistics for a workload can be obtained by invoking
// MNSA for each query in the workload"). Statistics accumulate in the
// session's manager. ctx is checked between workload queries (and inside each
// per-query analysis), so cancellation stops the pass at the next boundary
// with the manager holding exactly the statistics already built.
func RunMNSAWorkloadCtx(ctx context.Context, sess *optimizer.Session, queries []*query.Select, cfg Config) (*WorkloadResult, error) {
	wr := &WorkloadResult{}
	// Snapshot the drop-list at entry: the report must cover what THIS run
	// drop-listed, not entries inherited from earlier tuning passes.
	pre := map[stats.ID]bool{}
	for _, id := range sess.Manager().DropListIDs() {
		pre[id] = true
	}
	seen := map[stats.ID]bool{}
	for _, q := range queries {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := RunMNSA(ctx, sess, q, cfg)
		if err != nil {
			return nil, err
		}
		wr.PerQuery = append(wr.PerQuery, r)
		wr.OptimizerCalls += r.OptimizerCalls
		wr.BuildFailures = append(wr.BuildFailures, r.BuildFailures...)
		for _, id := range r.Created {
			if !seen[id] {
				seen[id] = true
				wr.Created = append(wr.Created, id)
			}
		}
	}
	// The final drop-list reflects later resurrections, so read it from the
	// manager rather than accumulating per-query — minus the entry snapshot.
	for _, id := range sess.Manager().DropListIDs() {
		if !pre[id] {
			wr.DropListed = append(wr.DropListed, id)
		}
	}
	return wr, nil
}
