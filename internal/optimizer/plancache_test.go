package optimizer

import (
	"sync"
	"testing"

	"autostats/internal/catalog"
	"autostats/internal/query"
	"autostats/internal/stats"
	"autostats/internal/storage"
)

func cachedSession(t testing.TB, capacity int) (*Session, *PlanCache) {
	t.Helper()
	sess, _ := testSession(t, 2)
	c := NewPlanCache(capacity)
	sess.SetPlanCache(c)
	return sess, c
}

func dateQuery(cutoff int64) *query.Select {
	return mkSelect([]string{"orders"},
		[]query.Filter{{Col: col("orders", "o_orderdate"), Op: query.Gt, Val: catalog.NewDate(cutoff)}},
		nil, nil)
}

func TestPlanCacheHitAndCounters(t *testing.T) {
	sess, c := cachedSession(t, 8)
	q := dateQuery(10400)
	p1, err := sess.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := sess.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("second optimization of an identical query should return the cached plan")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Errorf("stats after hit: %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", st.HitRate())
	}
}

func TestPlanCacheEpochInvalidation(t *testing.T) {
	sess, c := cachedSession(t, 8)
	q := dateQuery(10400)
	p1, _ := sess.Optimize(q)
	// Creating a statistic bumps the epoch: the cached plan must not be
	// reused, and the fresh plan should differ (the new histogram flips the
	// access path for this selective predicate).
	if _, err := sess.Manager().Create("orders", []string{"o_orderdate"}); err != nil {
		t.Fatal(err)
	}
	p2, _ := sess.Optimize(q)
	if p1 == p2 {
		t.Fatal("epoch bump must invalidate the cached plan")
	}
	if p1.Signature() == p2.Signature() {
		t.Error("plan should change once the statistic exists")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Errorf("stats: %+v", st)
	}
	// Drop-list toggles also bump the epoch.
	id := stats.MakeID("orders", []string{"o_orderdate"})
	sess.Manager().AddToDropList(id)
	p3, _ := sess.Optimize(q)
	if p3 == p2 {
		t.Error("drop-list change must invalidate the cached plan")
	}
}

func TestPlanCacheDataVersionInvalidation(t *testing.T) {
	sess, _ := cachedSession(t, 8)
	q := dateQuery(10400)
	p1, _ := sess.Optimize(q)
	td := mustTable(t, sess.Manager().Database(), "orders")
	var row storage.Row
	td.Scan(func(_ int, r storage.Row) bool {
		row = append(row, r...)
		return false
	})
	if err := td.Insert(row); err != nil {
		t.Fatal(err)
	}
	p2, _ := sess.Optimize(q)
	if p1 == p2 {
		t.Error("DML must invalidate the cached plan via the data version")
	}
}

func TestPlanCacheSessionKnobsKeyed(t *testing.T) {
	sess, c := cachedSession(t, 16)
	id, err := sess.Manager().Create("orders", []string{"o_orderdate"})
	if err != nil {
		t.Fatal(err)
	}
	q := dateQuery(10400)
	p1, _ := sess.Optimize(q)
	// A what-if configuration — selectivity overrides, hidden statistics,
	// or both — marks a tuner probe: those optimizations bypass the cache
	// entirely, no lookup and no insert, so hypothetical-configuration plans
	// can never pollute the production cache (they surface as bypasses, not
	// misses).
	bypassBefore := sess.Obs().Snapshot().Counters["degraded.plancache_bypasses"]
	pin := map[int]float64{q.Filters[0].VarID: 0.0005}
	hide := []stats.ID{id.ID}
	if p, _ := sess.OptimizeWhatIf(q, WhatIf{Overrides: pin}); p == p1 {
		t.Error("a pinned-selectivity probe must not be served from the cache")
	}
	p2, _ := sess.OptimizeWhatIf(q, WhatIf{Hide: hide})
	if p1 == p2 {
		t.Error("ignoring the statistic must not serve the cached production plan")
	}
	// Overrides bite under the ignored statistic and must change the probe's
	// plan content, even though no probe touches the cache.
	p3, _ := sess.OptimizeWhatIf(q, WhatIf{Hide: hide, Overrides: pin})
	if p3.Signature() == p2.Signature() {
		t.Error("selectivity override should change the what-if plan")
	}
	st := c.Stats()
	if st.Size != 1 || st.Misses != 1 || st.Hits != 0 {
		t.Errorf("what-if probes must not touch the cache: %+v", st)
	}
	bypasses := sess.Obs().Snapshot().Counters["degraded.plancache_bypasses"] - bypassBefore
	if bypasses != 3 {
		t.Errorf("plancache_bypasses = %d, want 3 (one per probe)", bypasses)
	}
	// A plain optimization is back on the production path and hits the
	// original entry.
	p4, _ := sess.Optimize(q)
	if p4 != p1 {
		t.Error("a plain optimization after the probes should hit the original cache entry")
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Errorf("expected the plain lookup to hit: %+v", st)
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	// Distinct templates: with parameterized keys, dateQuery variants that
	// differ only in their constant share one entry, so eviction needs
	// statements whose shapes differ.
	sess, c := cachedSession(t, 2)
	q1 := dateQuery(10000)
	q2 := mkSelect([]string{"orders"},
		[]query.Filter{{Col: col("orders", "o_totalprice"), Op: query.Gt, Val: catalog.NewFloat(1000)}},
		nil, nil)
	q3 := mkSelect([]string{"customer"},
		[]query.Filter{{Col: col("customer", "c_custkey"), Op: query.Gt, Val: catalog.NewInt(10)}},
		nil, nil)
	p1, _ := sess.Optimize(q1)
	_, _ = sess.Optimize(q2)
	// Touch q1 so q2 is the LRU victim when q3 arrives.
	if got, _ := sess.Optimize(q1); got != p1 {
		t.Fatal("expected q1 hit")
	}
	_, _ = sess.Optimize(q3)
	st := c.Stats()
	if st.Evictions != 1 || st.Size != 2 {
		t.Errorf("after overflow: %+v", st)
	}
	if got, _ := sess.Optimize(q1); got != p1 {
		t.Error("recently used q1 should have survived eviction")
	}
	before := c.Stats().Hits
	_, _ = sess.Optimize(q2)
	if c.Stats().Hits != before {
		t.Error("q2 should have been evicted (miss expected)")
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	if NewPlanCache(0) != nil {
		t.Error("capacity 0 should disable the cache")
	}
	var c *PlanCache
	if c.Stats() != (PlanCacheStats{}) || c.Keys() != nil {
		t.Error("nil cache methods should be safe no-ops")
	}
	sess, _ := testSession(t, 2)
	sess.SetPlanCache(nil)
	q := dateQuery(10400)
	p1, _ := sess.Optimize(q)
	p2, _ := sess.Optimize(q)
	if p1 == p2 {
		t.Error("without a cache each optimization builds a fresh plan")
	}
}

// TestConcurrentOptimizeAndMutate races cached optimization on one shared
// session in several goroutines against statistics creation/drop in another goroutine.
// Correctness bar: no race reports (run under -race) and every returned plan
// is non-nil with a positive cost.
func TestConcurrentOptimizeAndMutate(t *testing.T) {
	sess, _ := cachedSession(t, 64)
	mgr := sess.Manager()
	queries := []*query.Select{dateQuery(10000), dateQuery(10200), dateQuery(10400)}

	stop := make(chan struct{})
	var mutator sync.WaitGroup
	mutator.Add(1)
	go func() {
		defer mutator.Done()
		cols := [][]string{{"o_orderdate"}, {"o_custkey"}, {"o_totalprice"}}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c := cols[i%len(cols)]
			if _, err := mgr.Create("orders", c); err != nil {
				t.Errorf("create: %v", err)
				return
			}
			if i%3 == 0 {
				mgr.Drop(stats.MakeID("orders", c))
			}
		}
	}()

	var workers sync.WaitGroup
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			for i := 0; i < 40; i++ {
				p, err := sess.Optimize(queries[(w+i)%len(queries)])
				if err != nil {
					t.Errorf("optimize: %v", err)
					return
				}
				if p == nil || p.Cost() <= 0 {
					t.Errorf("bad plan under concurrency: %v", p)
					return
				}
			}
		}(w)
	}
	workers.Wait()
	close(stop)
	mutator.Wait()
}
