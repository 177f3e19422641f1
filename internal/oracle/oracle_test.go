package oracle

import (
	"fmt"
	"sync"
	"testing"
)

// The counts below are sized so the whole package runs in well under a
// minute without -race: the differential sweep covers more than 1000
// optimized-vs-reference queries, and each guarantee sweep runs on the
// database a churnCount-statement differential sweep left.
const (
	diffCount    = 1200
	churnCount   = 200
	monoCount    = 30
	bracketCount = 40
	shrinkCount  = 40
)

func reportFindings(t *testing.T, oracle string, findings []Finding) {
	t.Helper()
	for i, f := range findings {
		if i >= 10 {
			t.Errorf("%s: ... %d further findings suppressed", oracle, len(findings)-i)
			break
		}
		t.Errorf("%s finding: %s", oracle, f)
	}
}

// TestDifferentialSweep is the headline oracle: a 1200-statement randomized
// workload (DML interleaved, MNSA and maintenance running periodically)
// where every query's optimized execution is diffed against the naive
// reference evaluator.
func TestDifferentialSweep(t *testing.T) {
	h, err := New(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.RunDifferential(diffCount)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queries < 1000 {
		t.Errorf("sweep ran %d queries, want >= 1000 (raise diffCount)", rep.Queries)
	}
	if rep.MNSARuns == 0 || rep.MaintenanceRuns == 0 {
		t.Errorf("sweep must interleave MNSA (%d) and maintenance (%d) runs", rep.MNSARuns, rep.MaintenanceRuns)
	}
	if rep.Skipped > rep.Queries/20 {
		t.Errorf("%d/%d queries skipped on naive budget — coverage too thin", rep.Skipped, rep.Queries)
	}
	reportFindings(t, "differential", rep.Findings)
}

// churned is the seed-1 harness after a churnCount-statement differential
// sweep: the state cmd/oracle checks the paper's guarantees on, with the
// sweep's DML applied to the database. The guarantee sweeps share it; their
// checks run on fresh sessions that only read the database.
var churned = sync.OnceValues(func() (*Harness, error) {
	h, err := New(Options{Seed: 1})
	if err != nil {
		return nil, err
	}
	rep, err := h.RunDifferential(churnCount)
	if err != nil {
		return nil, err
	}
	if rep.DML == 0 {
		return nil, fmt.Errorf("differential sweep of %d statements ran no DML", churnCount)
	}
	if len(rep.Findings) > 0 {
		return nil, fmt.Errorf("differential sweep: %d findings, the first: %s", len(rep.Findings), rep.Findings[0])
	}
	return h, nil
})

// TestMonotonicitySweep checks the optimizer cost model is non-decreasing
// in each pinned selectivity variable — the assumption MNSA's bracketing
// argument (paper §4) rests on — on the churned database.
func TestMonotonicitySweep(t *testing.T) {
	h, err := churned()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.RunMonotonicity(monoCount)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checks == 0 {
		t.Fatal("monotonicity sweep made no comparisons")
	}
	reportFindings(t, "monotonicity", rep.Findings)
}

// TestExtremeBracketSweep checks the MNSA bracket on the churned database:
// every interior pinning and the true cost (with all statistics actually
// built) lie between the extremes, t-equivalent extremes put the true cost
// within the same tolerance of P_low, and MNSA stops for a truthful reason.
func TestExtremeBracketSweep(t *testing.T) {
	h, err := churned()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.RunExtremeBracket(bracketCount)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checks == 0 {
		t.Fatal("bracket sweep made no comparisons")
	}
	reportFindings(t, "bracket", rep.Findings)
}

// TestShrinkPreservationSweep checks the Shrinking Set guarantee (paper
// §5.2) on the churned database: after shrinking, ignoring the removed
// statistics wholesale must leave every workload query's plan unchanged,
// for the batch and for each query alone.
func TestShrinkPreservationSweep(t *testing.T) {
	h, err := churned()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.RunShrinkPreservation(shrinkCount)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checks == 0 {
		t.Fatal("shrink sweep checked no queries")
	}
	t.Logf("%d/%d queries not essential, %d/%d reducible, batch %d removable",
		rep.NotEssential, rep.Exact, rep.Reducible, rep.Exact, rep.BatchRemovable)
	reportFindings(t, "shrink", rep.Findings)
}

// TestHarnessDeterminism runs the cheapest oracle twice from the same seed
// and requires identical reports — the property that makes any failure
// seed a reproducible bug report.
func TestHarnessDeterminism(t *testing.T) {
	run := func() *DiffReport {
		h, err := New(Options{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := h.RunDifferential(150)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Statements != b.Statements || a.Queries != b.Queries || a.DML != b.DML ||
		a.Skipped != b.Skipped || a.MNSARuns != b.MNSARuns || a.MaintenanceRuns != b.MaintenanceRuns ||
		len(a.Findings) != len(b.Findings) {
		t.Fatalf("same seed produced different reports:\n  a: %+v\n  b: %+v", a, b)
	}
	for i := range a.Findings {
		if a.Findings[i] != b.Findings[i] {
			t.Errorf("finding %d differs between identical runs", i)
		}
	}
}

// TestSeedCorpus replays the seed corpus the initial qualification sweep
// ran (seeds 2..8; seed 7 surfaced the index-seek bounds bug fixed in
// internal/executor and locked by its own regression test there). A clean
// corpus here is the regression guard that the whole pipeline stays
// correct on workloads known to have had discriminating power. The paper's
// three guarantees run on the freshly generated corpus seeds in the
// packages that own them: optimizer:TestCostMonotonicity,
// core:TestExtremeBracket and core:TestShrinkingSet.
func TestSeedCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("seed corpus sweep is not short")
	}
	for seed := int64(2); seed <= 8; seed++ {
		h, err := New(Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := h.RunDifferential(200)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		reportFindings(t, "corpus differential", rep.Findings)
	}
}

// TestSimpleQueriesMode covers the reduced-grammar knob cmd/oracle exposes.
func TestSimpleQueriesMode(t *testing.T) {
	h, err := New(Options{Seed: 3, SimpleQueries: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.RunDifferential(150)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queries == 0 {
		t.Fatal("simple mode produced no queries")
	}
	reportFindings(t, "simple differential", rep.Findings)
}
