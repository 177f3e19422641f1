package oracle

import (
	"context"
	"math/rand"

	"autostats/internal/core"
	"autostats/internal/histogram"
	"autostats/internal/optimizer"
	"autostats/internal/query"
	"autostats/internal/stats"
	"autostats/internal/workload"
)

// PropertyReport summarizes one run of a paper guarantee's check over
// generated SELECTs on the harness's database, as it stands: after a
// differential sweep, with that sweep's DML applied.
type PropertyReport struct {
	// Queries counts the generated SELECTs checked.
	Queries int
	// Checks counts the comparisons the check made.
	Checks int
	// Findings lists every violation.
	Findings []Finding
}

// ShrinkReport is RunShrinkPreservation's report. Beside the preservation
// findings it counts how far Shrinking Set's kept sets are from Definition
// 1, over the queries shrunk alone with few enough candidates to search
// exactly. That distance is a known defect, so it is counted, not reported
// as a finding.
type ShrinkReport struct {
	PropertyReport
	// Exact counts the queries shrunk alone whose subsets were searched.
	Exact int
	// NotEssential counts those whose kept set has a proper subset that
	// keeps the plan.
	NotEssential int
	// Reducible counts those whose kept set fails the single-removal test.
	Reducible int
	// BatchRemovable counts the statistics kept for the whole batch that
	// could go on their own.
	BatchRemovable int
}

// propertyQueries generates count SELECTs for a guarantee check; the offset
// separates each check's stream from the others and from the differential
// sweep's.
func (h *Harness) propertyQueries(count int, offset int64) ([]*query.Select, error) {
	return workload.PropertyQueries(h.DB, count, h.Opts.complexity(), h.Opts.Seed+offset)
}

// freshSession returns a session over the harness's database with no
// statistics, so every selectivity variable starts missing. Its manager
// reports to the harness's private registry.
func (h *Harness) freshSession() *optimizer.Session {
	mgr := stats.NewManager(h.DB, histogram.MaxDiff, 0)
	mgr.SetObsRegistry(h.Reg)
	return optimizer.NewSession(mgr)
}

// finding records each violation a guarantee check returned for sql.
func (r *PropertyReport) finding(check string, seed int64, sql string, details []string) {
	for _, d := range details {
		r.Findings = append(r.Findings, Finding{Oracle: check, Seed: seed, SQL: sql, Detail: d})
	}
}

// RunMonotonicity runs optimizer.CheckMonotonicity (§4: optimal cost is
// non-decreasing in every selectivity variable) on count generated SELECTs,
// on one fresh session.
func (h *Harness) RunMonotonicity(count int) (*PropertyReport, error) {
	queries, err := h.propertyQueries(count, 1000)
	if err != nil {
		return nil, err
	}
	sess, rng := h.freshSession(), rand.New(rand.NewSource(h.Opts.Seed+2000))
	rep := &PropertyReport{Queries: len(queries)}
	for _, q := range queries {
		n, v, err := optimizer.CheckMonotonicity(sess, q, rng)
		if err != nil {
			return rep, err
		}
		rep.Checks += n
		rep.finding("monotonicity", h.Opts.Seed, q.SQL(), v)
	}
	return rep, nil
}

// RunExtremeBracket runs core.CheckBracket (MNSA's ε / 1−ε bracket at
// DefaultConfig's ε, its ground truth and MNSA's termination) on count
// generated SELECTs, each on a fresh session.
func (h *Harness) RunExtremeBracket(count int) (*PropertyReport, error) {
	queries, err := h.propertyQueries(count, 3000)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(h.Opts.Seed + 4000))
	rep := &PropertyReport{Queries: len(queries)}
	for _, q := range queries {
		n, v, err := core.CheckBracket(context.Background(), h.freshSession(), q, core.DefaultConfig(), rng)
		if err != nil {
			return rep, err
		}
		rep.Checks += n
		rep.finding("bracket", h.Opts.Seed, q.SQL(), v)
	}
	return rep, nil
}

// RunShrinkPreservation runs core.CheckShrinkingSet under execution-tree
// equivalence on a batch of count generated SELECTs and on each of them
// alone, each on a fresh session: hiding everything Shrinking Set removed
// must keep every plan.
func (h *Harness) RunShrinkPreservation(count int) (*ShrinkReport, error) {
	queries, err := h.propertyQueries(count, 5000)
	if err != nil {
		return nil, err
	}
	rep := &ShrinkReport{PropertyReport: PropertyReport{Queries: len(queries)}}
	shrink := func(qs ...*query.Select) (*core.ShrinkCheck, error) {
		ck, err := core.CheckShrinkingSet(context.Background(), h.freshSession(), qs, core.ExecutionTree{})
		if err != nil {
			return nil, err
		}
		rep.Checks += len(qs)
		rep.finding("shrink", h.Opts.Seed, "", ck.Violations)
		return ck, nil
	}
	batch, err := shrink(queries...)
	if err != nil {
		return rep, err
	}
	rep.BatchRemovable = len(batch.Removable)
	for _, q := range queries {
		ck, err := shrink(q)
		if err != nil {
			return rep, err
		}
		if !ck.Exact {
			continue
		}
		rep.Exact++
		if ck.NotEssential {
			rep.NotEssential++
		}
		if len(ck.Removable) > 0 {
			rep.Reducible++
		}
	}
	return rep, nil
}
