package core

import (
	"context"
	"testing"

	"autostats/internal/optimizer"
	"autostats/internal/query"
	"autostats/internal/storage"
	"autostats/internal/workload"
)

// cachedWorkloadSession returns a session with a 256-entry plan cache over a
// fresh z = 2 database, and the 20 complex queries both tests tune.
func cachedWorkloadSession(t *testing.T) (*storage.Database, *optimizer.Session, *optimizer.PlanCache, []*query.Select) {
	t.Helper()
	db := testDB(t, 2)
	sess := newSession(t, db)
	cache := optimizer.NewPlanCache(256)
	sess.SetPlanCache(cache)
	w, err := workload.Generate(db, workload.Config{Count: 20, Complexity: workload.Complex, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	return db, sess, cache, w.Queries()
}

// TestShrinkingProbesDoNotPollutePlanCache is the what-if pollution
// regression test: a tuning run's ignore-subset probes optimize under
// hypothetical statistics configurations, so they must bypass the plan
// cache entirely — no insertions (which would evict the production
// workload's plans) and no miss-count inflation (which would wreck the hit
// rate the cache is sized by). Probes surface as cache bypasses instead.
func TestShrinkingProbesDoNotPollutePlanCache(t *testing.T) {
	_, sess, cache, queries := cachedWorkloadSession(t)
	mgr := sess.Manager()
	for _, c := range WorkloadCandidates(queries, CandidateStats) {
		if _, err := mgr.Create(c.Table, c.Columns); err != nil {
			t.Fatal(err)
		}
	}

	// Warm the cache with the production workload.
	for _, q := range queries {
		if _, err := sess.Optimize(q); err != nil {
			t.Fatal(err)
		}
	}
	warm := cache.Stats()
	if warm.Size == 0 {
		t.Fatal("warm-up inserted no plans; the test needs a populated cache")
	}

	bypassesBefore := sess.Obs().Snapshot().Counters["degraded.plancache_bypasses"]
	sr, err := ShrinkingSetCtx(context.Background(), sess, queries, nil, ExecutionTree{})
	if err != nil {
		t.Fatal(err)
	}
	if sr.OptimizerCalls <= len(queries) {
		t.Fatalf("tuner made %d optimizer calls; expected probe rounds beyond the %d baselines", sr.OptimizerCalls, len(queries))
	}

	after := cache.Stats()
	if after.Size != warm.Size {
		t.Errorf("tuner changed the cache population: %d -> %d entries", warm.Size, after.Size)
	}
	if after.Evictions != warm.Evictions {
		t.Errorf("tuner evicted cached workload plans: evictions %d -> %d", warm.Evictions, after.Evictions)
	}
	if after.Misses != warm.Misses {
		t.Errorf("probes were counted as cache misses: %d -> %d", warm.Misses, after.Misses)
	}
	// The baseline optimizations ran with no ignored statistics against the
	// warm cache, so they hit; every ignore-subset probe is a bypass.
	if after.Hits <= warm.Hits {
		t.Errorf("baseline re-optimizations did not hit the warm cache: hits %d -> %d", warm.Hits, after.Hits)
	}
	bypasses := sess.Obs().Snapshot().Counters["degraded.plancache_bypasses"] - bypassesBefore
	probes := sr.OptimizerCalls - len(queries)
	if bypasses != int64(probes) {
		t.Errorf("plancache_bypasses = %d, want one per probe (%d)", bypasses, probes)
	}
}

// TestTuningProbesDoNotPollutePlanCache extends the rule to a whole offline
// tuning round on a warmed cache — MNSA per query, then Shrinking Set, the
// two phases of OfflineTune (run here without its closing drop-list step,
// which bumps the epoch and would leave no entry at the current state to
// inspect). MNSA's ε / 1−ε pair is what-if state just like an ignore buffer,
// so every probe is a bypass and only the default-magic optimizations look
// the cache up or insert into it.
func TestTuningProbesDoNotPollutePlanCache(t *testing.T) {
	db, sess, cache, queries := cachedWorkloadSession(t)
	for _, q := range queries {
		if _, err := sess.Optimize(q); err != nil {
			t.Fatal(err)
		}
	}
	warm := cache.Stats()
	if warm.Size == 0 {
		t.Fatal("warm-up inserted no plans; the test needs a populated cache")
	}
	bypassesBefore := sess.Obs().Snapshot().Counters["degraded.plancache_bypasses"]

	wr, err := RunMNSAWorkloadCtx(context.Background(), sess, queries, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sr, err := ShrinkingSetCtx(context.Background(), sess, queries, nil, ExecutionTree{})
	if err != nil {
		t.Fatal(err)
	}

	// Every MNSA iteration that finds a magic-number variable optimizes the
	// pair; an iteration that finds none terminates the run before it.
	pairs := 0
	for _, r := range wr.PerQuery {
		pairs += r.Iterations
		if r.TerminatedBy == TermNoMissing {
			pairs--
		}
	}
	if pairs == 0 || len(wr.Created) == 0 {
		t.Fatalf("round made %d ε / 1−ε pairs and built %d statistics; the test needs both", pairs, len(wr.Created))
	}
	probes := 2*pairs + sr.OptimizerCalls - len(queries)
	bypasses := sess.Obs().Snapshot().Counters["degraded.plancache_bypasses"] - bypassesBefore
	if bypasses != int64(probes) {
		t.Errorf("plancache_bypasses = %d, want %d (2 per MNSA pair × %d, plus Shrinking Set's probes)", bypasses, probes, pairs)
	}

	after := cache.Stats()
	defaultMagic := uint64(wr.OptimizerCalls + sr.OptimizerCalls - probes)
	if got := (after.Hits + after.Misses) - (warm.Hits + warm.Misses); got != defaultMagic {
		t.Errorf("round made %d cache lookups, want one per default-magic optimization (%d)", got, defaultMagic)
	}
	inserts := uint64(after.Size-warm.Size) + (after.Evictions - warm.Evictions)
	if misses := after.Misses - warm.Misses; inserts > misses || misses > defaultMagic {
		t.Errorf("round inserted %d plans on %d misses with %d default-magic optimizations", inserts, misses, defaultMagic)
	}

	// No entry reachable at the current statistics state is a probe's plan:
	// each is exactly what an uncached session with no what-if state
	// produces, cost included (a plan optimized under ε or 1−ε is not).
	fresh := optimizer.NewSession(sess.Manager())
	checked := 0
	for _, k := range cache.Keys() {
		if k.Epoch != sess.Manager().Epoch() || k.DataVersion != db.DataVersion() {
			continue
		}
		p, err := fresh.Optimize(mustParse(t, db, k.SQL))
		if err != nil {
			t.Fatal(err)
		}
		if p.Signature() != k.Signature || p.Cost() != k.Cost {
			t.Errorf("cached entry is not the default-magic plan:\n  sql: %s\n  cached: %s (%.4f)\n  fresh:  %s (%.4f)", k.SQL, k.Signature, k.Cost, p.Signature(), p.Cost())
		}
		checked++
	}
	if checked == 0 {
		t.Error("no cache entry at the current statistics state; nothing was verified")
	}
}
