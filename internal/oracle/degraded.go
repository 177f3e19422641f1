package oracle

import (
	"context"
	"fmt"

	"autostats/internal/core"
	"autostats/internal/query"
	"autostats/internal/workload"
)

// DegradedReport summarizes one degraded-recovery sweep.
type DegradedReport struct {
	// Queries counts SELECTs checked per phase.
	Queries int
	// DegradedPlans counts queries planned degraded during the fault phase.
	DegradedPlans int
	// Injections counts failpoint firings during the fault phase.
	Injections int
	// Findings lists every oracle violation.
	Findings []Finding
}

// RunDegradedRecovery checks degraded planning end to end: with every
// statistic build failing, queries must still plan (degraded, on magic
// numbers) and return exactly the reference evaluator's results; once builds
// recover, the same queries must re-optimize to non-degraded plans —
// automatically, with no reset call — and still agree with the reference.
//
// The check drops all existing statistics first so the fault phase is
// guaranteed to want builds; the recovery phase rebuilds what MNSA selects.
func (h *Harness) RunDegradedRecovery(count int) (*DegradedReport, error) {
	w, err := workload.Generate(h.DB, workload.Config{
		Count:      count,
		Complexity: h.Opts.complexity(),
		GroupByPct: 30,
		OrderByPct: 25,
		Seed:       h.Opts.Seed + 5,
	})
	if err != nil {
		return nil, err
	}
	var queries []*query.Select
	for _, stmt := range w.Statements {
		if sel, ok := stmt.(*query.Select); ok {
			queries = append(queries, sel)
		}
	}

	for _, st := range h.Mgr.All() {
		h.Mgr.Drop(st.ID)
	}

	cfg := core.DefaultConfig()
	rep := &DegradedReport{Queries: len(queries)}
	ctx := context.Background()

	// Fault phase: every build fails; results must still match the
	// reference.
	fired := FlakyFailpoint(h.Mgr, 1<<30)
	for _, sel := range queries {
		h.Sess.ClearDegraded()
		if _, err := core.RunMNSA(ctx, h.Sess, sel, cfg); err != nil {
			h.Mgr.SetFailpoint(nil)
			return rep, fmt.Errorf("oracle: MNSA under faults (%s): %w", sel.SQL(), err)
		}
		degraded := len(h.Sess.DegradedReasons()) > 0
		if degraded {
			rep.DegradedPlans++
		}
		f, err := h.checkQuery(sel)
		if err != nil {
			h.Mgr.SetFailpoint(nil)
			return rep, fmt.Errorf("oracle: degraded query (%s): %w", sel.SQL(), err)
		}
		if f != nil && f.Detail != "budget" {
			f.Oracle = "degraded-differential"
			rep.Findings = append(rep.Findings, *f)
		}
	}
	rep.Injections = fired()
	if rep.DegradedPlans == 0 && rep.Injections == 0 && len(queries) > 0 {
		rep.Findings = append(rep.Findings, Finding{
			Oracle: "degraded-recovery",
			Seed:   h.Opts.Seed,
			Detail: "fault phase exercised nothing: no injections fired and no plan degraded",
		})
	}

	// Recovery phase: builds succeed again, and the very next analysis of
	// each query must build what it wants and plan non-degraded, with no
	// explicit reset.
	h.Mgr.SetFailpoint(nil)
	for _, sel := range queries {
		h.Sess.ClearDegraded()
		if _, err := core.RunMNSA(ctx, h.Sess, sel, cfg); err != nil {
			return rep, fmt.Errorf("oracle: MNSA after recovery (%s): %w", sel.SQL(), err)
		}
		if reasons := h.Sess.DegradedReasons(); len(reasons) > 0 {
			rep.Findings = append(rep.Findings, Finding{
				Oracle: "degraded-recovery",
				Seed:   h.Opts.Seed,
				SQL:    sel.SQL(),
				Detail: fmt.Sprintf("plan still degraded after builds recovered: %v", reasons),
			})
			continue
		}
		f, err := h.checkQuery(sel)
		if err != nil {
			return rep, fmt.Errorf("oracle: recovered query (%s): %w", sel.SQL(), err)
		}
		if f != nil && f.Detail != "budget" {
			f.Oracle = "recovered-differential"
			rep.Findings = append(rep.Findings, *f)
		}
	}
	return rep, nil
}
