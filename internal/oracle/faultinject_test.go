package oracle

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"autostats/internal/catalog"
	"autostats/internal/optimizer"
	"autostats/internal/query"
	"autostats/internal/sqlparser"
	"autostats/internal/stats"
	"autostats/internal/storage"
)

// faultEnv stands up a harness with one statistic built and one query
// whose plan depends on it.
type faultEnv struct {
	h    *Harness
	q    *query.Select
	stat *stats.Statistic
}

func newFaultEnv(t *testing.T) *faultEnv {
	t.Helper()
	h, err := New(Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	st, err := h.Mgr.Create("orders", []string{"o_custkey"})
	if err != nil {
		t.Fatal(err)
	}
	q, err := sqlparser.ParseSelect(h.DB.Schema,
		"SELECT * FROM orders, customer WHERE orders.o_custkey = customer.c_custkey AND orders.o_custkey > 3")
	if err != nil {
		t.Fatal(err)
	}
	return &faultEnv{h: h, q: q, stat: st}
}

// churnOrders runs one INSERT so the data version moves and orders'
// modification counter crosses the default maintenance threshold.
func (e *faultEnv) churnOrders(t *testing.T, rows int) {
	t.Helper()
	td, err := e.h.DB.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	var proto []catalog.Datum
	td.Scan(func(_ int, r storage.Row) bool {
		proto = append([]catalog.Datum(nil), r...)
		return false
	})
	for i := 0; i < rows; i++ {
		if _, err := e.h.Exec.RunStatement(e.h.Sess, &query.Insert{Table: "orders", Values: proto}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRefreshFailpointLeavesManagerClean proves an injected refresh failure
// is fully atomic: the published snapshot, epoch, accounting and metrics
// are bit-for-bit what they were before the attempt.
func TestRefreshFailpointLeavesManagerClean(t *testing.T) {
	e := newFaultEnv(t)
	mgr := e.h.Mgr
	refreshes := e.h.Reg.Counter("stats.refreshes")

	before := mgr.Get(e.stat.ID)
	epoch := mgr.Epoch()
	acct := mgr.Snapshot()
	refreshesBefore := refreshes.Value()

	fired := FailNextRefreshes(mgr, 1)
	err := mgr.Refresh(context.Background(), e.stat.ID)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("Refresh error = %v, want ErrInjected", err)
	}
	if fired() != 1 {
		t.Fatalf("failpoint fired %d times, want 1", fired())
	}
	if got := mgr.Get(e.stat.ID); got != before {
		t.Error("failed refresh replaced the published statistic snapshot")
	}
	if mgr.Epoch() != epoch {
		t.Errorf("failed refresh bumped epoch %d -> %d", epoch, mgr.Epoch())
	}
	if mgr.Snapshot() != acct {
		t.Errorf("failed refresh changed accounting: %+v -> %+v", acct, mgr.Snapshot())
	}
	if refreshes.Value() != refreshesBefore {
		t.Errorf("failed refresh incremented stats.refreshes")
	}

	// Disarm and verify the manager recovers on the next attempt.
	mgr.SetFailpoint(nil)
	if err := mgr.Refresh(context.Background(), e.stat.ID); err != nil {
		t.Fatalf("refresh after disarm: %v", err)
	}
	if mgr.Get(e.stat.ID) == before {
		t.Error("successful refresh did not replace the snapshot")
	}
	if mgr.Epoch() != epoch+1 {
		t.Errorf("successful refresh epoch = %d, want %d", mgr.Epoch(), epoch+1)
	}
}

// TestCreateFailpointLeavesManagerClean proves the same atomicity for the
// statistics-creation path MNSA drives.
func TestCreateFailpointLeavesManagerClean(t *testing.T) {
	e := newFaultEnv(t)
	mgr := e.h.Mgr
	epoch := mgr.Epoch()
	acct := mgr.Snapshot()

	mgr.SetFailpoint(func(_ context.Context, op string, _ stats.ID) error {
		if op == "create" {
			return ErrInjected
		}
		return nil
	})
	if _, err := mgr.Create("lineitem", []string{"l_quantity"}); !errors.Is(err, ErrInjected) {
		t.Fatalf("Create error = %v, want ErrInjected", err)
	}
	if mgr.Has(stats.MakeID("lineitem", []string{"l_quantity"})) {
		t.Error("failed create left a statistic behind")
	}
	if mgr.Epoch() != epoch || mgr.Snapshot() != acct {
		t.Error("failed create mutated epoch or accounting")
	}
	// Resurrection and existing-statistic paths must not consult the
	// create failpoint (they build nothing).
	if _, err := mgr.Create("orders", []string{"o_custkey"}); err != nil {
		t.Fatalf("Create of existing statistic hit the failpoint: %v", err)
	}
	mgr.SetFailpoint(nil)
}

// TestMaintenanceRefreshFailureDoesNotPoisonPlanCache is the headline
// fault-injection property: after DML churn and an injected maintenance
// failure, the next optimization must not be served any plan keyed to the
// pre-churn state — proven through the cache miss counter and plan-key
// inspection.
func TestMaintenanceRefreshFailureDoesNotPoisonPlanCache(t *testing.T) {
	e := newFaultEnv(t)
	h := e.h
	cache := h.Sess.PlanCache()
	misses := h.Reg.Counter("optimizer.plancache.misses")
	hits := h.Reg.Counter("optimizer.plancache.hits")

	if _, err := h.Sess.Optimize(e.q); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Sess.Optimize(e.q); err != nil {
		t.Fatal(err)
	}
	if hits.Value() != 1 {
		t.Fatalf("warm-up: expected 1 cache hit, got %d", hits.Value())
	}

	e.churnOrders(t, 400) // well past the 20% modification threshold
	fired := FailNextRefreshes(h.Mgr, 1)
	rep, err := h.Mgr.RunMaintenance(context.Background(), stats.DefaultMaintenancePolicy())
	if err != nil || len(rep.RefreshFailures) != 1 || !errors.Is(rep.RefreshFailures[0].Err, ErrInjected) {
		t.Fatalf("RunMaintenance: err = %v, failures = %v; want no error and one ErrInjected failure", err, rep.RefreshFailures)
	}
	if fired() != 1 {
		t.Fatalf("failpoint fired %d times, want 1", fired())
	}
	h.Mgr.SetFailpoint(nil)

	missesBefore := misses.Value()
	hitsBefore := hits.Value()
	p, err := h.Sess.Optimize(e.q)
	if err != nil {
		t.Fatal(err)
	}
	// The post-churn optimization must MISS: the pre-churn entry's key
	// carries the old data version, so it cannot be served.
	if misses.Value() != missesBefore+1 || hits.Value() != hitsBefore {
		t.Errorf("post-failure optimize was served from cache (hits %d->%d, misses %d->%d)",
			hitsBefore, hits.Value(), missesBefore, misses.Value())
	}
	// And the plan must equal what a cache-less session computes fresh.
	fresh := optimizer.NewSession(h.Mgr)
	want, err := fresh.Optimize(e.q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Signature() != want.Signature() {
		t.Errorf("post-failure plan differs from fresh optimization:\n  cached: %s\n  fresh:  %s", p.Signature(), want.Signature())
	}
	assertNoPoisonedEntries(t, h, cache)
}

// TestStaleEpochProviderCannotPoisonSharedCache wires a session's reads
// through a provider that reports a frozen epoch while the statistics move
// on. Whatever that session publishes lands under the stale key, so an
// honest session sharing the cache can never be served it.
func TestStaleEpochProviderCannotPoisonSharedCache(t *testing.T) {
	e := newFaultEnv(t)
	h := e.h
	cache := h.Sess.PlanCache()
	misses := h.Reg.Counter("optimizer.plancache.misses")
	hits := h.Reg.Counter("optimizer.plancache.hits")

	fp := NewFaultyProvider(h.Mgr)
	frozen := fp.FreezeEpoch()
	// The statistics set changes after the freeze: the faulty session now
	// reads fresh statistics under a stale identity.
	if err := h.Mgr.Refresh(context.Background(), e.stat.ID); err != nil {
		t.Fatal(err)
	}
	if h.Mgr.Epoch() == frozen {
		t.Fatal("refresh did not advance the epoch")
	}

	faulty := h.Sess.Clone()
	faulty.SetStatsProvider(fp)
	if _, err := faulty.Optimize(e.q); err != nil {
		t.Fatal(err)
	}

	missesBefore := misses.Value()
	hitsBefore := hits.Value()
	honest := h.Sess
	p, err := honest.Optimize(e.q)
	if err != nil {
		t.Fatal(err)
	}
	if hits.Value() != hitsBefore || misses.Value() != missesBefore+1 {
		t.Errorf("honest session was served the stale-epoch entry (hits %d->%d, misses %d->%d)",
			hitsBefore, hits.Value(), missesBefore, misses.Value())
	}
	var sawFrozen, sawCurrent bool
	for _, k := range cache.Keys() {
		if k.SQL != e.q.SQL() {
			continue
		}
		switch k.Epoch {
		case frozen:
			sawFrozen = true
		case h.Mgr.Epoch():
			sawCurrent = true
			if k.Signature != p.Signature() {
				t.Errorf("current-epoch entry holds a different plan than the honest optimization")
			}
		}
	}
	if !sawFrozen || !sawCurrent {
		t.Errorf("expected both a frozen-epoch and a current-epoch entry (frozen=%v current=%v)", sawFrozen, sawCurrent)
	}
	assertNoPoisonedEntries(t, h, cache)
}

// TestTornSnapshotPlanNotCached mutates the statistics in the middle of an
// optimization (via the provider's read-triggered tear) and asserts the
// optimizer's publish-time epoch re-check refuses to cache the torn plan.
func TestTornSnapshotPlanNotCached(t *testing.T) {
	e := newFaultEnv(t)
	h := e.h
	cache := h.Sess.PlanCache()

	fp := NewFaultyProvider(h.Mgr)
	sess := h.Sess.Clone()
	sess.SetStatsProvider(fp)

	fp.TearAfter(1, func() {
		if err := h.Mgr.Refresh(context.Background(), e.stat.ID); err != nil {
			t.Errorf("tear refresh: %v", err)
		}
	})
	if _, err := sess.Optimize(e.q); err != nil {
		t.Fatal(err)
	}
	if n := cache.Len(); n != 0 {
		t.Fatalf("torn optimization was cached (%d entries): %+v", n, cache.Keys())
	}

	// With no tear armed the same session caches normally.
	if _, err := sess.Optimize(e.q); err != nil {
		t.Fatal(err)
	}
	if n := cache.Len(); n != 1 {
		t.Fatalf("clean optimization was not cached (len=%d)", n)
	}
	assertNoPoisonedEntries(t, h, cache)
}

// assertNoPoisonedEntries is the cache-wide invariant every fault test
// ends on: any entry keyed to the CURRENT statistics state must hold
// exactly the plan a fresh, cache-less optimization produces now. Entries
// under stale keys are unreachable by construction (the lookup key always
// carries the current epoch/data-version) and therefore harmless.
func assertNoPoisonedEntries(t *testing.T, h *Harness, cache *optimizer.PlanCache) {
	t.Helper()
	epoch := h.Mgr.Epoch()
	dv := h.DB.DataVersion()
	fresh := optimizer.NewSession(h.Mgr)
	for _, k := range cache.Keys() {
		if k.Epoch != epoch || k.DataVersion != dv {
			continue
		}
		q, err := sqlparser.ParseSelect(h.DB.Schema, k.SQL)
		if err != nil {
			t.Errorf("cached SQL does not re-parse: %v", err)
			continue
		}
		p, err := fresh.Optimize(q)
		if err != nil {
			t.Errorf("re-optimizing cached SQL: %v", err)
			continue
		}
		if p.Signature() != k.Signature {
			t.Errorf("POISONED cache entry at current state:\n  sql: %s\n  cached: %s\n  fresh:  %s", k.SQL, k.Signature, p.Signature())
		}
	}
}

// TestConcurrentFaultChurnNeverPoisonsCache hammers a shared cache from
// optimizer goroutines while another goroutine injects refresh failures,
// refreshes statistics and runs DML. Run under -race this checks both the
// locking and, at the end, the no-poisoned-plan invariant.
func TestConcurrentFaultChurnNeverPoisonsCache(t *testing.T) {
	e := newFaultEnv(t)
	h := e.h

	queries := make([]*query.Select, 0, 8)
	for _, sql := range []string{
		"SELECT * FROM orders, customer WHERE orders.o_custkey = customer.c_custkey AND orders.o_custkey > 3",
		"SELECT * FROM orders WHERE orders.o_totalprice > 1000",
		"SELECT customer.c_mktsegment, COUNT(*) FROM customer GROUP BY customer.c_mktsegment",
		"SELECT * FROM lineitem, orders WHERE lineitem.l_orderkey = orders.o_orderkey AND orders.o_custkey = 5",
	} {
		q, err := sqlparser.ParseSelect(h.DB.Schema, sql)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}

	const workers = 4
	const iters = 120
	var wg sync.WaitGroup
	errs := make(chan error, workers+1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := h.Sess.Clone()
			for i := 0; i < iters; i++ {
				if _, err := sess.Optimize(queries[(w+i)%len(queries)]); err != nil {
					errs <- fmt.Errorf("worker %d iter %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		td, err := h.DB.Table("orders")
		if err != nil {
			errs <- err
			return
		}
		var proto []catalog.Datum
		td.Scan(func(_ int, r storage.Row) bool {
			proto = append([]catalog.Datum(nil), r...)
			return false
		})
		for i := 0; i < iters; i++ {
			switch i % 4 {
			case 0:
				FailNextRefreshes(h.Mgr, 1)
				if err := h.Mgr.Refresh(context.Background(), e.stat.ID); !errors.Is(err, ErrInjected) {
					errs <- fmt.Errorf("churn iter %d: want injected error, got %v", i, err)
					return
				}
				h.Mgr.SetFailpoint(nil)
			case 1:
				if err := h.Mgr.Refresh(context.Background(), e.stat.ID); err != nil {
					errs <- err
					return
				}
			case 2:
				if _, err := h.Exec.RunStatement(h.Sess.Clone(), &query.Insert{Table: "orders", Values: proto}); err != nil {
					errs <- err
					return
				}
			default:
				if _, err := h.Mgr.RunMaintenance(context.Background(), stats.DefaultMaintenancePolicy()); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	assertNoPoisonedEntries(t, h, h.Sess.PlanCache())
}
