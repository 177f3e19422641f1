package oracle

import (
	"context"
	"fmt"

	"autostats/internal/core"
	"autostats/internal/query"
	"autostats/internal/stats"
	"autostats/internal/workload"
)

// DiffReport summarizes one differential sweep.
type DiffReport struct {
	// Statements is the total processed (queries + DML).
	Statements int
	// Queries counts SELECTs compared against the reference evaluator.
	Queries int
	// DML counts data-modifying statements executed to churn the data.
	DML int
	// Skipped counts queries whose naive evaluation exceeded the budget.
	Skipped int
	// MNSARuns counts mid-stream MNSA invocations (statistics churn).
	MNSARuns int
	// MaintenanceRuns counts mid-stream maintenance passes (refresh churn).
	MaintenanceRuns int
	// Findings lists every oracle violation.
	Findings []Finding
}

// Differential-sweep cadence: every mnsaEvery-th query runs MNSA first so
// statistics (and therefore plan shapes) evolve mid-sweep, and every
// maintenanceEvery-th statement runs a maintenance pass so refreshes and
// epoch bumps interleave with cached plans.
const (
	mnsaEvery        = 23
	maintenanceEvery = 97
)

// RunDifferential generates count statements (an adversarial mix of
// multi-join SELECTs with <>, out-of-range and HAVING predicates, plus
// ~15% DML) and checks every SELECT's optimized execution against the
// reference evaluator. Statistics are built and refreshed mid-sweep so the
// comparison covers plans produced under magic numbers, fresh histograms
// and stale histograms alike — the result must be identical in every case.
func (h *Harness) RunDifferential(count int) (*DiffReport, error) {
	w, err := workload.Generate(h.DB, workload.Config{
		Count:         count,
		UpdatePct:     15,
		Complexity:    h.Opts.complexity(),
		GroupByPct:    40,
		OrderByPct:    25,
		NePct:         15,
		OutOfRangePct: 15,
		HavingPct:     35,
		Seed:          h.Opts.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	rep := &DiffReport{}
	for i, stmt := range w.Statements {
		rep.Statements++
		sel, isQuery := stmt.(*query.Select)
		if !isQuery {
			if _, err := h.Exec.RunStatement(h.Sess, stmt); err != nil {
				return rep, fmt.Errorf("oracle: DML %d (%s): %w", i, stmt.SQL(), err)
			}
			h.Mgr.Tick()
			rep.DML++
			continue
		}
		if rep.Queries%mnsaEvery == mnsaEvery-1 {
			if _, err := core.RunMNSA(context.Background(), h.Sess, sel, core.DefaultConfig()); err != nil {
				return rep, fmt.Errorf("oracle: MNSA on query %d (%s): %w", i, sel.SQL(), err)
			}
			rep.MNSARuns++
		}
		if rep.Statements%maintenanceEvery == 0 {
			if _, err := h.Mgr.RunMaintenance(context.Background(), stats.DefaultMaintenancePolicy()); err != nil {
				return rep, fmt.Errorf("oracle: maintenance after statement %d: %w", i, err)
			}
			rep.MaintenanceRuns++
		}
		if f, err := h.checkQuery(sel); err != nil {
			return rep, fmt.Errorf("oracle: query %d (%s): %w", i, sel.SQL(), err)
		} else if f != nil {
			if f.Detail == "budget" {
				rep.Skipped++
			} else {
				rep.Findings = append(rep.Findings, *f)
			}
		}
		h.Mgr.Tick()
		rep.Queries++
	}
	return rep, nil
}

// checkQuery runs one SELECT through both executors and diffs the results.
// It returns a Finding with Detail "budget" when the reference evaluation
// was skipped, a real Finding on mismatch, or nil when the query agrees.
func (h *Harness) checkQuery(sel *query.Select) (*Finding, error) {
	p, err := h.Sess.Optimize(sel)
	if err != nil {
		return nil, fmt.Errorf("optimize: %w", err)
	}
	got, err := h.Exec.Run(p)
	if err != nil {
		return nil, fmt.Errorf("execute: %w", err)
	}
	want, err := NaiveExecute(h.DB, sel, h.Opts.MaxNaiveRows)
	if err == ErrBudget {
		return &Finding{Oracle: "differential", Seed: h.Opts.Seed, SQL: sel.SQL(), Detail: "budget"}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("reference execute: %w", err)
	}
	if diff := CompareResults(sel, got, want); diff != "" {
		return &Finding{
			Oracle: "differential",
			Seed:   h.Opts.Seed,
			SQL:    sel.SQL(),
			Detail: diff,
		}, nil
	}
	return nil, nil
}
