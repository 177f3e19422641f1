package oracle

import (
	"context"
	"fmt"
	"math/rand"

	"autostats/internal/core"
	"autostats/internal/histogram"
	"autostats/internal/optimizer"
	"autostats/internal/query"
	"autostats/internal/stats"
	"autostats/internal/workload"
)

// relCostTol absorbs float noise in cost comparisons. The monotonicity and
// bracketing arguments are exact over the reals; in float64 the optimizer
// sums per-operator costs in plan-dependent orders, so equal-by-math costs
// can differ in the last bits.
const relCostTol = 1e-9

// bracketTol is the looser relative slack for the extreme-plan bracket:
// histogram estimates can reach selectivity 1.0 while P_high pins variables
// at 1−ε, so the bracket's upper end is compared with ε-sized headroom.
const bracketTol = 1e-3

// monotonicityGrid is the ascending selectivity sweep for each pinned
// variable. It spans the clamp floor (optimizer.MinSelectivity) to 1−floor,
// log-spaced below 0.1 and linear above, hitting the magic-number values
// (0.10, 0.30, 0.90) where plan flips concentrate.
var monotonicityGrid = []float64{
	optimizer.MinSelectivity, 1e-5, 1e-4, 1e-3, 0.01, 0.05,
	0.10, 0.20, 0.30, 0.50, 0.70, 0.90, 0.99, 1 - 1e-4, 1 - optimizer.MinSelectivity,
}

// MetaReport summarizes one metamorphic oracle run.
type MetaReport struct {
	// Queries counts generated SELECTs examined.
	Queries int
	// Checked counts queries that actually exercised the oracle (e.g. had
	// missing selectivity variables to sweep).
	Checked int
	// Assertions counts individual property checks performed.
	Assertions int
	// Findings lists every violation.
	Findings []Finding
}

// metaQueries generates a pure-SELECT workload for the metamorphic oracles
// (seed offset separates it from the differential stream).
func (h *Harness) metaQueries(count int, seedOffset int64) ([]*query.Select, error) {
	w, err := workload.Generate(h.DB, workload.Config{
		Count:      count,
		UpdatePct:  0,
		Complexity: h.Opts.complexity(),
		GroupByPct: 40,
		OrderByPct: 20,
		NePct:      10,
		Seed:       h.Opts.Seed + seedOffset,
	})
	if err != nil {
		return nil, err
	}
	out := make([]*query.Select, 0, len(w.Statements))
	for _, s := range w.Statements {
		if sel, ok := s.(*query.Select); ok {
			out = append(out, sel)
		}
	}
	return out, nil
}

// freshSession builds an isolated manager+session over the harness's
// database with no statistics, so every selectivity variable starts
// missing and overrides bind to all of them.
func (h *Harness) freshSession() (*stats.Manager, *optimizer.Session) {
	mgr := stats.NewManager(h.DB, histogram.MaxDiff, 0)
	mgr.SetObsRegistry(h.Reg)
	return mgr, optimizer.NewSession(mgr)
}

// RunMonotonicity checks the paper's §4 premise directly: the optimal plan
// cost, as a function of any one pinned selectivity variable with the
// others held fixed, is non-decreasing. (Each individual plan's cost is
// monotone in each variable, and the optimum is a pointwise minimum of
// monotone functions, hence monotone.) MNSA's extreme-plan bracketing is
// sound only under this property.
func (h *Harness) RunMonotonicity(count int) (*MetaReport, error) {
	queries, err := h.metaQueries(count, 1000)
	if err != nil {
		return nil, err
	}
	_, sess := h.freshSession()
	rng := rand.New(rand.NewSource(h.Opts.Seed + 2000))
	rep := &MetaReport{}
	for _, q := range queries {
		rep.Queries++
		missing := sess.MissingStatVars(q)
		if len(missing) == 0 {
			continue
		}
		rep.Checked++
		// Hold the other variables at a random point so sweeps cross
		// different cost terrain per query.
		base := make(map[int]float64, len(missing))
		for _, v := range missing {
			base[v] = 0.05 + 0.9*rng.Float64()
		}
		for _, v := range missing {
			prev := -1.0
			prevSel := 0.0
			for _, sel := range monotonicityGrid {
				ov := make(map[int]float64, len(missing))
				for k, val := range base {
					ov[k] = val
				}
				ov[v] = sel
				sess.SetSelectivityOverrides(ov)
				p, err := sess.Optimize(q)
				if err != nil {
					sess.ClearOverrides()
					return rep, fmt.Errorf("oracle: optimize %s with var %d=%g: %w", q.SQL(), v, sel, err)
				}
				rep.Assertions++
				if prev >= 0 && p.Cost() < prev*(1-relCostTol) {
					rep.Findings = append(rep.Findings, Finding{
						Oracle: "monotonicity",
						Seed:   h.Opts.Seed,
						SQL:    q.SQL(),
						Detail: fmt.Sprintf("cost decreased on var %d: C(%g)=%.6f > C(%g)=%.6f", v, prevSel, prev, sel, p.Cost()),
					})
					break
				}
				prev, prevSel = p.Cost(), sel
			}
		}
		sess.ClearOverrides()
	}
	return rep, nil
}

// RunExtremeBracket checks MNSA's central inference per query, against a
// fresh statistics-free session:
//
//  1. bracketing — for random interior assignments of the missing
//     variables, the optimal cost lies within [Cost(P_low), Cost(P_high)];
//  2. ground truth — after physically building every candidate statistic
//     (the step MNSA's sensitivity analysis exists to avoid), the real
//     plan's cost still lies within the extreme bracket, and whenever the
//     extremes were t-equivalent, the real cost is within the t band of
//     them, confirming the "essential set already present" verdict.
//
// Extremes are pinned at ε = optimizer.MinSelectivity rather than the
// paper's 0.0005: the estimator clamps every selectivity to the
// [MinSelectivity, 1] interval, so this ε makes the bracket cover every
// value a histogram can produce.
func (h *Harness) RunExtremeBracket(count, samples int) (*MetaReport, error) {
	queries, err := h.metaQueries(count, 3000)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(h.Opts.Seed + 4000))
	rep := &MetaReport{}
	eps := optimizer.MinSelectivity
	teq := core.TOptimizerCost{T: 20}
	for _, q := range queries {
		rep.Queries++
		// Fresh manager per query: statistics built for the ground-truth
		// step must not leak into the next query's missing-variable set.
		mgr, sess := h.freshSession()
		missing := sess.MissingStatVars(q)
		if len(missing) == 0 {
			continue
		}
		rep.Checked++

		pin := func(sel float64) (*optimizer.Plan, error) {
			ov := make(map[int]float64, len(missing))
			for _, v := range missing {
				ov[v] = sel
			}
			sess.SetSelectivityOverrides(ov)
			return sess.Optimize(q)
		}
		pLow, err := pin(eps)
		if err != nil {
			return rep, fmt.Errorf("oracle: P_low for %s: %w", q.SQL(), err)
		}
		pHigh, err := pin(1 - eps)
		if err != nil {
			return rep, fmt.Errorf("oracle: P_high for %s: %w", q.SQL(), err)
		}
		lo, hi := pLow.Cost(), pHigh.Cost()
		rep.Assertions++
		if lo > hi*(1+relCostTol) {
			rep.Findings = append(rep.Findings, Finding{
				Oracle: "extreme-bracket",
				Seed:   h.Opts.Seed,
				SQL:    q.SQL(),
				Detail: fmt.Sprintf("Cost(P_low)=%.6f exceeds Cost(P_high)=%.6f", lo, hi),
			})
			continue
		}
		inBracket := func(c float64) bool {
			return c >= lo*(1-bracketTol) && c <= hi*(1+bracketTol)
		}

		// (1) Random interior assignments must stay inside the bracket.
		for s := 0; s < samples; s++ {
			ov := make(map[int]float64, len(missing))
			for _, v := range missing {
				ov[v] = eps + (1-2*eps)*rng.Float64()
			}
			sess.SetSelectivityOverrides(ov)
			p, err := sess.Optimize(q)
			if err != nil {
				return rep, fmt.Errorf("oracle: interior optimize %s: %w", q.SQL(), err)
			}
			rep.Assertions++
			if !inBracket(p.Cost()) {
				rep.Findings = append(rep.Findings, Finding{
					Oracle: "extreme-bracket",
					Seed:   h.Opts.Seed,
					SQL:    q.SQL(),
					Detail: fmt.Sprintf("interior cost %.6f outside [%.6f, %.6f] at %v", p.Cost(), lo, hi, ov),
				})
				break
			}
		}

		// (2) Ground truth: build every candidate statistic and re-optimize
		// with real estimates. The equivalence verdict MNSA would reach
		// from the extremes alone must hold for the realized plan.
		equivalent := teq.Equivalent(pLow, pHigh)
		for _, c := range core.CandidateStats(q) {
			if _, err := mgr.Create(c.Table, c.Columns); err != nil {
				return rep, fmt.Errorf("oracle: building candidate %s for %s: %w", c.ID(), q.SQL(), err)
			}
		}
		sess.ClearOverrides()
		pFull, err := sess.Optimize(q)
		if err != nil {
			return rep, fmt.Errorf("oracle: full-stats optimize %s: %w", q.SQL(), err)
		}
		rep.Assertions++
		if !inBracket(pFull.Cost()) {
			rep.Findings = append(rep.Findings, Finding{
				Oracle: "extreme-bracket",
				Seed:   h.Opts.Seed,
				SQL:    q.SQL(),
				Detail: fmt.Sprintf("full-statistics cost %.6f outside extreme bracket [%.6f, %.6f]", pFull.Cost(), lo, hi),
			})
			continue
		}
		if equivalent {
			rep.Assertions++
			band := (teq.T/100)*1 + bracketTol
			if lo > 0 && (pFull.Cost()-lo)/lo > band {
				rep.Findings = append(rep.Findings, Finding{
					Oracle: "t-equivalence",
					Seed:   h.Opts.Seed,
					SQL:    q.SQL(),
					Detail: fmt.Sprintf("extremes t-equivalent but full-statistics cost %.6f is %.1f%% above P_low %.6f", pFull.Cost(), 100*(pFull.Cost()-lo)/lo, lo),
				})
			}
		}
	}
	return rep, nil
}

// RunShrinkPreservation checks §5.2's guarantee end to end: after building
// statistics for a query batch and shrinking them, ignoring exactly the
// removed set must leave every query's plan equivalent (execution-tree) to
// its plan under the full set. This re-checks the FINAL set wholesale —
// the algorithm itself only ever verified one removal at a time against
// the then-current set, so this is a genuine oracle, not a tautology.
func (h *Harness) RunShrinkPreservation(count int) (*MetaReport, error) {
	queries, err := h.metaQueries(count, 5000)
	if err != nil {
		return nil, err
	}
	mgr, sess := h.freshSession()
	rep := &MetaReport{}
	for _, c := range core.WorkloadCandidates(queries, core.CandidateStats) {
		if _, err := mgr.Create(c.Table, c.Columns); err != nil {
			return nil, fmt.Errorf("oracle: building candidate %s: %w", c.ID(), err)
		}
	}
	baseline := make([]string, len(queries))
	for i, q := range queries {
		p, err := sess.Optimize(q)
		if err != nil {
			return nil, fmt.Errorf("oracle: baseline optimize %s: %w", q.SQL(), err)
		}
		baseline[i] = p.Signature()
	}
	res, err := core.ShrinkingSetCtx(context.Background(), sess, queries, nil, core.ExecutionTree{})
	if err != nil {
		return nil, fmt.Errorf("oracle: shrinking set: %w", err)
	}
	if err := sess.IgnoreStatisticsSubset("", res.Removed); err != nil {
		return nil, err
	}
	defer sess.ClearIgnored()
	for i, q := range queries {
		rep.Queries++
		rep.Checked++
		p, err := sess.Optimize(q)
		if err != nil {
			return rep, fmt.Errorf("oracle: shrunk-set optimize %s: %w", q.SQL(), err)
		}
		rep.Assertions++
		if p.Signature() != baseline[i] {
			rep.Findings = append(rep.Findings, Finding{
				Oracle: "shrink-preservation",
				Seed:   h.Opts.Seed,
				SQL:    q.SQL(),
				Detail: fmt.Sprintf("plan changed after removing %d statistics (kept %d):\n  before: %s\n  after:  %s", len(res.Removed), len(res.Kept), baseline[i], p.Signature()),
			})
		}
	}
	return rep, nil
}
