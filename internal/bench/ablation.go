package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

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
}

// Ablations are DESIGN.md's MNSA design-choice sweeps (✦). Name is the
// cmd/experiments -exp value; Title is the table heading, a format for the
// database and workload names; Run returns one row per configuration point.
var Ablations = []struct {
	Name, Title string
	Run         func(dbName, wlName string, scale float64, seed int64) ([]*AblationRow, error)
}{
	{"ablation-t", "Ablation — t threshold sweep — %s, workload %s (larger t ⇒ fewer statistics, laxer equivalence)", ablationThreshold},
	{"ablation-eps", "Ablation — epsilon sweep — %s, workload %s (larger ε narrows the tested selectivity range)", ablationEpsilon},
	{"ablation-next", "Ablation — FindNextStatToBuild heuristic vs random pick — %s, workload %s", ablationNextStat},
	{"ablation-cov", "Ablation — §6 cost-coverage knob — %s, workload %s (tune only queries covering X%% of estimated cost)", ablationCostWeighted},
	{"ablation-hist", "Ablation — histogram structure (MaxDiff vs equi-depth) — %s, workload %s", ablationHistogramKind},
}

// The sweeps' configuration points.
var (
	// thresholds are DESIGN.md's t ∈ {5, 10, 20, 40}, in percent.
	thresholds = []float64{5, 10, 20, 40}
	epsilons   = []float64{0.0005, 0.005, 0.05, 0.2}
	coverages  = []float64{1.0, 0.9, 0.7, 0.5}
)

// ablate runs the all-candidates baseline on c, then one arm per point, and
// returns one row per point with its execution cost relative to the
// baseline's.
func ablate[P any](c cell, points []P, arm func(P) (label string, a *armResult, err error)) ([]*AblationRow, error) {
	base, err := c.runArm(createAll(core.CandidateStats))
	if err != nil {
		return nil, err
	}
	rows := make([]*AblationRow, 0, len(points))
	for _, p := range points {
		label, a, err := arm(p)
		if err != nil {
			return nil, err
		}
		rows = append(rows, &AblationRow{
			Label:           label,
			StatsCreated:    a.created,
			CreationUnits:   a.units,
			OptimizerCalls:  a.optCalls,
			ExecCost:        a.exec,
			ExecIncreasePct: PctIncrease(base.exec, a.exec),
		})
	}
	return rows, nil
}

// ablationThreshold sweeps the t-optimizer-cost equivalence threshold.
// Larger t means a laxer equivalence test, fewer statistics, and potentially
// worse plans — the cost/accuracy dial of §3.2.
func ablationThreshold(dbName, wlName string, scale float64, seed int64) ([]*AblationRow, error) {
	c := newCell(dbName, wlName, scale, seed)
	return ablate(c, thresholds, func(t float64) (string, *armResult, error) {
		cfg := core.DefaultConfig()
		cfg.T = t
		a, err := c.runArm(mnsa(cfg))
		return labelFloat("t=", t, "%"), a, err
	})
}

// ablationEpsilon sweeps ε, the extreme-selectivity pin of §4.1. Larger ε
// narrows the tested selectivity range, weakening the guarantee for very
// selective predicates.
func ablationEpsilon(dbName, wlName string, scale float64, seed int64) ([]*AblationRow, error) {
	c := newCell(dbName, wlName, scale, seed)
	return ablate(c, epsilons, func(eps float64) (string, *armResult, error) {
		cfg := core.DefaultConfig()
		cfg.Epsilon = eps
		a, err := c.runArm(mnsa(cfg))
		return labelFloat("eps=", eps, ""), a, err
	})
}

// ablationNextStat compares the §4.2 most-expensive-operator heuristic
// against a seeded random choice of the next statistic to build. The
// heuristic should converge in fewer created statistics and optimizer calls.
func ablationNextStat(dbName, wlName string, scale float64, seed int64) ([]*AblationRow, error) {
	c := newCell(dbName, wlName, scale, seed)
	return ablate(c, []string{"most-expensive-operator", "random-pick"}, func(label string) (string, *armResult, error) {
		cfg := core.DefaultConfig()
		if label == "random-pick" {
			rng := rand.New(rand.NewSource(seed))
			cfg.NextStatFn = func(p *optimizer.Plan, cands []core.Candidate, mgr *stats.Manager, consumed map[stats.ID]bool, missing []int) []core.Candidate {
				var avail []core.Candidate
				for _, cand := range cands {
					if !consumed[cand.ID()] && !mgr.Has(cand.ID()) {
						avail = append(avail, cand)
					}
				}
				if len(avail) == 0 {
					return nil
				}
				return []core.Candidate{avail[rng.Intn(len(avail))]}
			}
		}
		a, err := c.runArm(mnsa(cfg))
		return label, a, err
	})
}

func labelFloat(prefix string, v float64, suffix string) string {
	return prefix + strconv.FormatFloat(v, 'g', -1, 64) + suffix
}

// ablationCostWeighted sweeps the §6 cost-coverage knob: MNSA restricted to
// the most expensive queries covering X% of estimated workload cost.
func ablationCostWeighted(dbName, wlName string, scale float64, seed int64) ([]*AblationRow, error) {
	c := newCell(dbName, wlName, scale, seed)
	return ablate(c, coverages, func(cov float64) (string, *armResult, error) {
		var tuned int
		a, err := c.runArm(func(e *env, queries []*query.Select) (int, int, error) {
			wr, n, err := runMNSACostWeighted(e.sess, queries, core.DefaultConfig(), cov)
			if err != nil {
				return 0, 0, err
			}
			tuned = n
			return len(wr.Created), wr.OptimizerCalls, nil
		})
		return labelFloat("coverage=", cov, "") + labelFloat(" (", float64(tuned), " queries)"), a, err
	})
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

// ablationHistogramKind compares MaxDiff against equi-depth histograms under
// the same MNSA configuration — the §1 claim that the selection algorithms
// are oblivious to the statistics structure, with the quality difference the
// histogram choice itself makes.
func ablationHistogramKind(dbName, wlName string, scale float64, seed int64) ([]*AblationRow, error) {
	c := newCell(dbName, wlName, scale, seed)
	return ablate(c, []histogram.Kind{histogram.MaxDiff, histogram.EquiDepth}, func(kind histogram.Kind) (string, *armResult, error) {
		k := c
		k.kind = kind
		a, err := k.runArm(mnsa(core.DefaultConfig()))
		return kind.String(), a, err
	})
}
