package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"autostats/internal/core"
	"autostats/internal/histogram"
	"autostats/internal/optimizer"
	"autostats/internal/query"
	"autostats/internal/stats"
)

// AblationRow is one configuration point of an MNSA design-choice sweep.
type AblationRow struct {
	Label string
	// StatsCreated is the number of statistics MNSA built.
	StatsCreated int
	// CreationUnits includes optimizer-call overhead.
	CreationUnits  float64
	OptimizerCalls int
	// ExecCost is the workload execution cost under the resulting
	// statistics.
	ExecCost float64
	// ExecIncreasePct is relative to the all-candidates baseline.
	ExecIncreasePct float64
	Elapsed         time.Duration
}

// runMNSAPoint runs MNSA with cfg on a fresh environment and returns a row.
func runMNSAPoint(dbName, wlName string, scale float64, seed int64, label string, baselineExec float64, cfg core.Config) (*AblationRow, error) {
	env, err := newEnv(dbName, scale)
	if err != nil {
		return nil, err
	}
	w, err := env.buildWorkload(wlName, seed)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	wr, err := core.RunMNSAWorkloadCtx(context.Background(), env.sess, w.Queries(), cfg)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	exec, err := env.executeQueries(w)
	if err != nil {
		return nil, err
	}
	return &AblationRow{
		Label:           label,
		StatsCreated:    len(wr.Created),
		CreationUnits:   env.mgr.Snapshot().TotalBuildCost + float64(wr.OptimizerCalls)*optimizerCallUnits,
		OptimizerCalls:  wr.OptimizerCalls,
		ExecCost:        exec,
		ExecIncreasePct: PctIncrease(baselineExec, exec),
		Elapsed:         elapsed,
	}, nil
}

// baselineExec measures workload execution cost with every candidate built.
func baselineExec(dbName, wlName string, scale float64, seed int64) (float64, error) {
	env, err := newEnv(dbName, scale)
	if err != nil {
		return 0, err
	}
	w, err := env.buildWorkload(wlName, seed)
	if err != nil {
		return 0, err
	}
	if _, _, err := env.createAll(core.WorkloadCandidates(w.Queries(), core.CandidateStats)); err != nil {
		return 0, err
	}
	return env.executeQueries(w)
}

// AblationThreshold sweeps the t-optimizer-cost equivalence threshold
// (DESIGN.md: t ∈ {5, 10, 20, 40}). Larger t means a laxer equivalence test,
// fewer statistics, and potentially worse plans — the cost/accuracy dial of
// §3.2.
func AblationThreshold(dbName, wlName string, scale float64, seed int64, thresholds []float64) ([]*AblationRow, error) {
	if len(thresholds) == 0 {
		thresholds = []float64{5, 10, 20, 40}
	}
	base, err := baselineExec(dbName, wlName, scale, seed)
	if err != nil {
		return nil, err
	}
	var rows []*AblationRow
	for _, t := range thresholds {
		cfg := core.DefaultConfig()
		cfg.T = t
		row, err := runMNSAPoint(dbName, wlName, scale, seed, labelFloat("t=", t, "%%"), base, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationEpsilon sweeps ε, the extreme-selectivity pin of §4.1. Larger ε
// narrows the tested selectivity range, weakening the guarantee for very
// selective predicates.
func AblationEpsilon(dbName, wlName string, scale float64, seed int64, epsilons []float64) ([]*AblationRow, error) {
	if len(epsilons) == 0 {
		epsilons = []float64{0.0005, 0.005, 0.05, 0.2}
	}
	base, err := baselineExec(dbName, wlName, scale, seed)
	if err != nil {
		return nil, err
	}
	var rows []*AblationRow
	for _, eps := range epsilons {
		cfg := core.DefaultConfig()
		cfg.Epsilon = eps
		row, err := runMNSAPoint(dbName, wlName, scale, seed, labelFloat("eps=", eps, ""), base, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationNextStat compares the §4.2 most-expensive-operator heuristic
// against a seeded random choice of the next statistic to build. The
// heuristic should converge in fewer created statistics and optimizer calls.
func AblationNextStat(dbName, wlName string, scale float64, seed int64) ([]*AblationRow, error) {
	base, err := baselineExec(dbName, wlName, scale, seed)
	if err != nil {
		return nil, err
	}
	heuristic, err := runMNSAPoint(dbName, wlName, scale, seed, "most-expensive-operator", base, core.DefaultConfig())
	if err != nil {
		return nil, err
	}

	// Random arm: run MNSA-with-random-pick via the core RandomNextStat hook.
	cfg := core.DefaultConfig()
	rng := rand.New(rand.NewSource(seed))
	cfg.NextStatFn = func(p *optimizer.Plan, cands []core.Candidate, mgr *stats.Manager, consumed map[stats.ID]bool, missing []int) []core.Candidate {
		var avail []core.Candidate
		for _, c := range cands {
			if !consumed[c.ID()] && !mgr.Has(c.ID()) {
				avail = append(avail, c)
			}
		}
		if len(avail) == 0 {
			return nil
		}
		return []core.Candidate{avail[rng.Intn(len(avail))]}
	}
	random, err := runMNSAPoint(dbName, wlName, scale, seed, "random-pick", base, cfg)
	if err != nil {
		return nil, err
	}
	return []*AblationRow{heuristic, random}, nil
}

func labelFloat(prefix string, v float64, suffix string) string {
	return prefix + strconv.FormatFloat(v, 'g', -1, 64) + suffix
}

// AblationCostWeighted sweeps the §6 cost-coverage knob: MNSA restricted to
// the most expensive queries covering X% of estimated workload cost.
func AblationCostWeighted(dbName, wlName string, scale float64, seed int64, coverages []float64) ([]*AblationRow, error) {
	if len(coverages) == 0 {
		coverages = []float64{1.0, 0.9, 0.7, 0.5}
	}
	base, err := baselineExec(dbName, wlName, scale, seed)
	if err != nil {
		return nil, err
	}
	var rows []*AblationRow
	for _, cov := range coverages {
		env, err := newEnv(dbName, scale)
		if err != nil {
			return nil, err
		}
		w, err := env.buildWorkload(wlName, seed)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		wr, tuned, err := runMNSACostWeighted(env.sess, w.Queries(), core.DefaultConfig(), cov)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		exec, err := env.executeQueries(w)
		if err != nil {
			return nil, err
		}
		rows = append(rows, &AblationRow{
			Label:           labelFloat("coverage=", cov, "") + labelFloat(" (", float64(tuned), " queries)"),
			StatsCreated:    len(wr.Created),
			CreationUnits:   env.mgr.Snapshot().TotalBuildCost + float64(wr.OptimizerCalls)*optimizerCallUnits,
			OptimizerCalls:  wr.OptimizerCalls,
			ExecCost:        exec,
			ExecIncreasePct: PctIncrease(base, exec),
			Elapsed:         elapsed,
		})
	}
	return rows, nil
}

// runMNSACostWeighted implements the §6 off-line optimization: "in MNSA we
// may only consider building statistics that would potentially serve a
// significant fraction of the workload cost." Queries are ranked by their
// optimizer-estimated cost under the CURRENT statistics (default magic
// numbers where none exist); MNSA then runs only over the most expensive
// queries that together cover `coverage` (0..1] of total estimated workload
// cost. Cheap tail queries are skipped entirely — their plans may remain
// suboptimal, but by construction they contribute little to the bill.
// Returns the MNSA result (optimizer calls include the ranking pass) and the
// number of queries tuned.
func runMNSACostWeighted(sess *optimizer.Session, queries []*query.Select, cfg core.Config, coverage float64) (*core.WorkloadResult, int, error) {
	if coverage <= 0 || coverage > 1 {
		return nil, 0, fmt.Errorf("bench: coverage %v out of (0,1]", coverage)
	}
	type ranked struct {
		q    *query.Select
		cost float64
	}
	rs := make([]ranked, len(queries))
	total := 0.0
	for i, q := range queries {
		p, err := sess.Optimize(q)
		if err != nil {
			return nil, 0, err
		}
		rs[i] = ranked{q: q, cost: p.Cost()}
		total += p.Cost()
	}
	sort.SliceStable(rs, func(a, b int) bool { return rs[a].cost > rs[b].cost })

	var selected []*query.Select
	covered := 0.0
	for _, r := range rs {
		if covered >= coverage*total && len(selected) > 0 {
			break
		}
		selected = append(selected, r.q)
		covered += r.cost
	}
	wr, err := core.RunMNSAWorkloadCtx(context.Background(), sess, selected, cfg)
	if err != nil {
		return nil, 0, err
	}
	wr.OptimizerCalls += len(queries) // the ranking pass
	return wr, len(selected), nil
}

// AblationHistogramKind compares MaxDiff against equi-depth histograms under
// the same MNSA configuration — the §1 claim that the selection algorithms
// are oblivious to the statistics structure, with the quality difference the
// histogram choice itself makes.
func AblationHistogramKind(dbName, wlName string, scale float64, seed int64) ([]*AblationRow, error) {
	base, err := baselineExec(dbName, wlName, scale, seed)
	if err != nil {
		return nil, err
	}
	var rows []*AblationRow
	for _, kind := range []histogram.Kind{histogram.MaxDiff, histogram.EquiDepth} {
		env, err := newEnv(dbName, scale)
		if err != nil {
			return nil, err
		}
		// Swap the manager's histogram kind by rebuilding the environment
		// plumbing with the alternative kind.
		env.mgr = stats.NewManager(env.db, kind, 0)
		env.sess = optimizer.NewSession(env.mgr)
		w, err := env.buildWorkload(wlName, seed)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		wr, err := core.RunMNSAWorkloadCtx(context.Background(), env.sess, w.Queries(), core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		exec, err := env.executeQueries(w)
		if err != nil {
			return nil, err
		}
		rows = append(rows, &AblationRow{
			Label:           kind.String(),
			StatsCreated:    len(wr.Created),
			CreationUnits:   env.mgr.Snapshot().TotalBuildCost + float64(wr.OptimizerCalls)*optimizerCallUnits,
			OptimizerCalls:  wr.OptimizerCalls,
			ExecCost:        exec,
			ExecIncreasePct: PctIncrease(base, exec),
			Elapsed:         elapsed,
		})
	}
	return rows, nil
}
