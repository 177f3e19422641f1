package core

import (
	"context"
	"testing"

	"autostats/internal/optimizer"
	"autostats/internal/stats"
	"autostats/internal/workload"
)

// randomWorkload returns a fresh session over the scale-0.5 database at
// skew z and 15 generated queries: the inputs TestMNSAInvariantsOnRandomWorkloads
// and TestExtremeBracket share.
func randomWorkload(t testing.TB, z float64, seed int64) (*optimizer.Session, []*querySelect) {
	t.Helper()
	db := testDB(t, z)
	w, err := workload.Generate(db, workload.Config{Count: 15, Complexity: workload.Complex, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return newSession(t, db), w.Queries()
}

// TestMNSAInvariantsOnRandomWorkloads checks, across random workloads and
// skews, the contract of Figure 1 (that MNSA stops for a truthful reason is
// TestExtremeBracket's, on the same workloads):
//
//  1. every created statistic is a proposed candidate and exists afterwards;
//  2. the optimizer-call overhead respects the §4.3 bound;
//  3. re-running MNSA immediately is a no-op (convergence).
func TestMNSAInvariantsOnRandomWorkloads(t *testing.T) {
	for _, z := range []float64{0, 2, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			sess, queries := randomWorkload(t, z, seed)
			mgr := sess.Manager()
			cfg := DefaultConfig()
			for qi, q := range queries {
				cands := map[stats.ID]bool{}
				for _, c := range cfg.CandidateFn(q) {
					cands[c.ID()] = true
				}
				res, err := RunMNSA(context.Background(), sess, q, cfg)
				if err != nil {
					t.Fatalf("z=%v seed=%d Q%d: %v", z, seed, qi, err)
				}

				for _, id := range res.Created {
					if !cands[id] {
						t.Errorf("z=%v Q%d: created %s is not a candidate", z, qi, id)
					}
					if !mgr.Has(id) {
						t.Errorf("z=%v Q%d: created %s missing from manager", z, qi, id)
					}
				}
				if max := 1 + 3*res.Iterations; res.OptimizerCalls > max {
					t.Errorf("z=%v Q%d: %d optimizer calls exceed bound %d", z, qi, res.OptimizerCalls, max)
				}

				// Convergence: an immediate re-run builds nothing.
				again, err := RunMNSA(context.Background(), sess, q, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(again.Created) != 0 {
					t.Errorf("z=%v Q%d: re-run created %v", z, qi, again.Created)
				}
			}
		}
	}
}

// TestMNSADInvariants: MNSA/D's drop-list is always a subset of what it
// created or what already existed, and Maintained ∪ DropList = All.
func TestMNSADInvariants(t *testing.T) {
	db := testDB(t, 2)
	sess := newSession(t, db)
	mgr := sess.Manager()
	w, err := workload.Generate(db, workload.Config{Count: 20, Complexity: workload.Complex, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Drop = true
	wr, err := RunMNSAWorkloadCtx(context.Background(), sess, w.Queries(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	created := map[stats.ID]bool{}
	for _, id := range wr.Created {
		created[id] = true
	}
	for _, id := range wr.DropListed {
		if !created[id] {
			t.Errorf("drop-listed %s was never created", id)
		}
	}
	if got := len(mgr.Maintained()) + len(mgr.DropList()); got != len(mgr.All()) {
		t.Errorf("maintained+droplist=%d, all=%d", got, len(mgr.All()))
	}
}

// TestWorkloadMNSAQualityAcrossSkews: after workload MNSA, total execution
// cost must stay within a modest band of the all-candidates baseline — the
// Figure 4 quality claim as a regression test across every skew level.
func TestWorkloadMNSAQualityAcrossSkews(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, z := range []float64{0, 2, 4} {
		// Baseline arm.
		dbA := testDB(t, z)
		sessA := newSession(t, dbA)
		w, err := workload.Generate(dbA, workload.Config{Count: 25, Complexity: workload.Complex, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		queries := w.Queries()
		for _, c := range WorkloadCandidates(queries, CandidateStats) {
			if _, err := sessA.Manager().Create(c.Table, c.Columns); err != nil {
				t.Fatal(err)
			}
		}
		execA := execQueries(t, dbA, sessA, queries)

		dbB := testDB(t, z)
		sessB := newSession(t, dbB)
		if _, err := RunMNSAWorkloadCtx(context.Background(), sessB, queries, DefaultConfig()); err != nil {
			t.Fatal(err)
		}
		execB := execQueries(t, dbB, sessB, queries)

		increase := 100 * (execB - execA) / execA
		t.Logf("z=%v: all=%.0f mnsa=%.0f (%.1f%%)", z, execA, execB, increase)
		// t-optimizer-cost equivalence bounds ESTIMATED cost spread, not
		// actual execution cost; a single join-order coin flip on a magic
		// numbered predicate can cost ~2x on one query, which at a
		// 25-query workload is up to ~20-25%. The band reflects that known
		// heuristic risk (the paper's ≤2% rides on 1000-statement
		// workloads, where one flip amortizes).
		if increase > 25 {
			t.Errorf("z=%v: MNSA quality loss %.1f%% exceeds band", z, increase)
		}
	}
}
