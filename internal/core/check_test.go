package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"autostats/internal/datagen"
	"autostats/internal/optimizer"
	"autostats/internal/storage"
	"autostats/internal/workload"
)

// corpusSeeds are the seeds of the correctness harness's corpus: the
// NULL-bearing TPC-D database at scale 0.05 and z = 2
// (datagen.GenerateWithNulls), the same data internal/oracle runs on.
var corpusSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}

// corpus returns the corpus database at seed and count generated queries
// over it, drawn from seed+offset.
func corpus(t *testing.T, seed int64, count int, offset int64) (*storage.Database, []*querySelect) {
	t.Helper()
	db, err := datagen.GenerateWithNulls(datagen.Config{Scale: 0.05, Z: 2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := workload.PropertyQueries(db, count, workload.Complex, seed+offset)
	if err != nil {
		t.Fatal(err)
	}
	return db, qs
}

// TestExtremeBracket is the one check of the ε / 1−ε bracket, CheckBracket,
// at DefaultConfig's ε. Its inputs: the z = 0, 2, 4 × seed 1–3 MNSA
// workloads, checked in order on one session so each query meets the
// statistics MNSA built for the ones before it; and the corpus workloads
// (40 queries at seed 1, 8 at seeds 2–8), each query on a fresh session.
func TestExtremeBracket(t *testing.T) {
	ctx := context.Background()
	check := func(t *testing.T, sess *optimizer.Session, q *querySelect, rng *rand.Rand) int {
		t.Helper()
		n, violations, err := CheckBracket(ctx, sess, q, DefaultConfig(), rng)
		if err != nil {
			t.Fatalf("%s: %v", q.SQL(), err)
		}
		for _, v := range violations {
			t.Errorf("%s: %s", q.SQL(), v)
		}
		return n
	}
	for _, z := range []float64{0, 2, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("mnsa z=%v seed=%d", z, seed), func(t *testing.T) {
				sess, queries := randomWorkload(t, z, seed)
				rng := rand.New(rand.NewSource(seed))
				for _, q := range queries {
					check(t, sess, q, rng)
				}
			})
		}
	}
	for _, seed := range corpusSeeds {
		t.Run(fmt.Sprintf("corpus seed=%d", seed), func(t *testing.T) {
			count := 8
			if seed == 1 {
				count = 40
			}
			db, queries := corpus(t, seed, count, 3000)
			rng := rand.New(rand.NewSource(seed + 4000))
			checks := 0
			for _, q := range queries {
				checks += check(t, newSession(t, db), q, rng)
			}
			if checks == 0 {
				t.Error("no bracket comparison made")
			}
		})
	}
}

// Pinned Definition 1 counts of Shrinking Set's one pass over the corpus
// (execution-tree equivalence), summed over seeds 1–8. They measure a known
// defect, not a guarantee: a move either way means the algorithm or the
// estimator changed, and the pins move with the reason.
const (
	// wantNotEssential counts corpus queries, each shrunk on its own over
	// at most maxExactCandidates candidates, whose kept set has a proper
	// subset that keeps the plan.
	wantNotEssential = 5
	// wantReducible counts those queries whose kept set fails the
	// single-removal test.
	wantReducible = 4
	// wantReducibleBatches counts corpus batches whose kept set fails the
	// single-removal test.
	wantReducibleBatches = 2
)

// checkShrinkingSet runs CheckShrinkingSet under execution-tree equivalence
// and fails t on every plan the kept set does not preserve.
func checkShrinkingSet(t *testing.T, sess *optimizer.Session, queries ...*querySelect) *ShrinkCheck {
	t.Helper()
	ck, err := CheckShrinkingSet(context.Background(), sess, queries, ExecutionTree{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ck.Violations {
		t.Error(v)
	}
	return ck
}

// TestShrinkingSetProducesEssentialSet holds Shrinking Set to Definition 1
// (§3.3) on a hand query whose candidates are few enough to search: the kept
// set preserves the plan, no kept statistic can go on its own, and no proper
// subset of it preserves the plan.
func TestShrinkingSetProducesEssentialSet(t *testing.T) {
	db := testDB(t, 2)
	q := mustParse(t, db, `SELECT * FROM lineitem, orders
		WHERE l_orderkey = o_orderkey AND l_shipdate < DATE 8300 AND o_totalprice > 500000`)
	ck := checkShrinkingSet(t, newSession(t, db), q)
	t.Logf("kept %v", ck.Kept)
	if len(ck.Removable) > 0 {
		t.Errorf("kept set fails the single-removal test: %v can go", ck.Removable)
	}
	if !ck.Exact {
		t.Fatalf("more than %d candidates: Definition 1 was not searched", maxExactCandidates)
	}
	if ck.NotEssential {
		t.Errorf("kept %v is not an essential set: a proper subset preserves the plan (minimum %d)", ck.Kept, ck.Minimum)
	}
}

// TestShrinkingSet is the corpus check of Shrinking Set, CheckShrinkingSet
// under execution-tree equivalence. Its inputs: the corpus batches (40
// queries at seed 1, 10 at seeds 2–8), and each corpus query shrunk on its
// own. Every input must keep every plan; the distance from Definition 1 is
// pinned.
func TestShrinkingSet(t *testing.T) {
	notEssential, reducible, reducibleBatches := 0, 0, 0
	for _, seed := range corpusSeeds {
		t.Run(fmt.Sprintf("corpus seed=%d", seed), func(t *testing.T) {
			count := 10
			if seed == 1 {
				count = 40
			}
			db, queries := corpus(t, seed, count, 5000)
			if ck := checkShrinkingSet(t, newSession(t, db), queries...); len(ck.Removable) > 0 {
				t.Logf("batch kept set fails the single-removal test: %v can go", ck.Removable)
				reducibleBatches++
			}
			exact, kept, minimum := 0, 0, 0
			for _, q := range queries {
				ck := checkShrinkingSet(t, newSession(t, db), q)
				if !ck.Exact {
					continue
				}
				exact++
				kept += len(ck.Kept)
				minimum += ck.Minimum
				if ck.NotEssential {
					t.Logf("kept %v is not an essential set (minimum %d): %s", ck.Kept, ck.Minimum, q.SQL())
					notEssential++
				}
				if len(ck.Removable) > 0 {
					t.Logf("%v can go from kept %v: %s", ck.Removable, ck.Kept, q.SQL())
					reducible++
				}
			}
			t.Logf("%d of %d queries searched exactly: Σ kept %d, Σ minimum %d", exact, len(queries), kept, minimum)
		})
	}
	if notEssential != wantNotEssential || reducible != wantReducible || reducibleBatches != wantReducibleBatches {
		t.Errorf("Definition 1 counts moved: %d queries not essential (pinned %d), %d reducible (pinned %d), %d reducible batches (pinned %d)",
			notEssential, wantNotEssential, reducible, wantReducible, reducibleBatches, wantReducibleBatches)
	}
}
