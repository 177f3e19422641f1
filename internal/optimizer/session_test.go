package optimizer

import (
	"sync"
	"testing"

	"autostats/internal/catalog"
	"autostats/internal/query"
	"autostats/internal/stats"
)

// TestCloneIsolation audits Clone for shared mutable state: the ignore and
// override buffers must be fresh maps (not aliases of the parent's), while
// manager and plan cache are intentionally shared.
func TestCloneIsolation(t *testing.T) {
	sess, _ := testSession(t, 0)
	sess.SetPlanCache(NewPlanCache(4))
	sess.SetSelectivityOverrides(map[int]float64{7: 0.5})
	if err := sess.IgnoreStatisticsSubset("", []stats.ID{stats.MakeID("orders", []string{"o_orderdate"})}); err != nil {
		t.Fatal(err)
	}

	c := sess.Clone()
	if c.cache != sess.cache || c.Manager() != sess.Manager() {
		t.Error("Clone must share manager and plan cache")
	}
	if len(c.ignored) != 0 || len(c.overrides) != 0 {
		t.Fatalf("Clone inherited buffers: ignored=%v overrides=%v", c.ignored, c.overrides)
	}
	// Mutating the clone's buffers must not leak into the parent.
	c.SetSelectivityOverrides(map[int]float64{1: 0.9})
	c.ignored[stats.MakeID("lineitem", []string{"l_quantity"})] = true
	if len(sess.overrides) != 1 || sess.overrides[7] != 0.5 {
		t.Errorf("parent overrides mutated via clone: %v", sess.overrides)
	}
	if sess.ignored[stats.MakeID("lineitem", []string{"l_quantity"})] {
		t.Error("parent ignore buffer mutated via clone")
	}
}

// TestCloneConcurrentSessions is the -race regression for Clone: clones with
// divergent per-session buffers optimizing in parallel against the shared
// cache must not trip the race detector.
func TestCloneConcurrentSessions(t *testing.T) {
	sess, _ := testSession(t, 0)
	q := mkSelect([]string{"lineitem"},
		[]query.Filter{{Col: col("lineitem", "l_quantity"), Op: query.Gt, Val: catalog.NewFloat(10)}},
		nil, nil)
	sess.SetPlanCache(NewPlanCache(32))

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := sess.Clone()
			c.SetSelectivityOverrides(map[int]float64{g: 0.1 * float64(g+1)})
			for i := 0; i < 20; i++ {
				if _, err := c.Optimize(q); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
