package optimizer

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"autostats/internal/catalog"
	"autostats/internal/datagen"
	"autostats/internal/histogram"
	"autostats/internal/query"
	"autostats/internal/stats"
	"autostats/internal/storage"
	"autostats/internal/workload"
)

// joinMemoFixture is a cache-less session over enumSession's database with
// single-column statistics on both sides of lineitem ⋈ orders.
type joinMemoFixture struct {
	sess     *Session
	mgr      *stats.Manager
	db       *storage.Database
	q        *query.Select
	lid, rid stats.ID
}

func newJoinMemoFixture(t *testing.T) *joinMemoFixture {
	t.Helper()
	sess, db := enumSession(t)
	f := &joinMemoFixture{sess: sess, mgr: sess.Manager(), db: db,
		q: mustParse(t, db, "SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey")}
	create := func(c query.ColumnRef) stats.ID {
		st, err := f.mgr.Create(c.Table, []string{c.Column})
		if err != nil {
			t.Fatal(err)
		}
		return st.ID
	}
	j := f.q.Joins[0]
	if j.Left.Table != "lineitem" {
		t.Fatalf("join %s: want lineitem on the left", j)
	}
	f.lid, f.rid = create(j.Left), create(j.Right)
	return f
}

// published is histogram.JoinSelectivity of the histograms the manager
// publishes now, clamped as the estimator clamps it.
func (f *joinMemoFixture) published() float64 {
	return clampSel(histogram.JoinSelectivity(f.mgr.Get(f.lid).Data.Leading, f.mgr.Get(f.rid).Data.Leading))
}

// estimated optimizes the join on the fixture's session and returns the
// selectivity the session's estimator then gives the predicate, after
// checking that the plan is the one a cold session chooses.
func (f *joinMemoFixture) estimated(t *testing.T, w WhatIf) float64 {
	t.Helper()
	warm, err := f.sess.OptimizeWhatIf(f.q, w)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewSession(f.mgr).OptimizeWhatIf(f.q, w)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffNodes(warm.Root, cold.Root, "root"); d != "" {
		t.Errorf("warm session's plan differs from a cold session's: %s", d)
	}
	return newEstimator(f.sess, f.q, w).joinSel(f.q.Joins[0])
}

// skew inserts copies of table's first live row with a key no row on the
// other side has, which moves the join selectivity: the extra rows find no
// partner. (Copies of a matching lineitem row would not move it: orders'
// keys are unique, so each lineitem row matches exactly one.)
func (f *joinMemoFixture) skew(t *testing.T, table, column string, copies int) {
	t.Helper()
	td := mustTable(t, f.db, table)
	var first storage.Row
	td.Scan(func(_ int, r storage.Row) bool {
		first = r
		return false
	})
	row := append(storage.Row(nil), first...)
	row[td.Schema.ColumnIndex(column)] = catalog.NewInt(1 << 40)
	for i := 0; i < copies; i++ {
		if err := td.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJoinMemoFollowsPublishedHistograms: the session's join selectivity
// memo answers with histogram.JoinSelectivity of the histograms published
// now — after a refresh of one side on changed data, and after a drop and a
// re-create of the other — and a statistic hidden by WhatIf never reaches
// it: the predicate is missing and takes the override, and the next plain
// call is unaffected.
func TestJoinMemoFollowsPublishedHistograms(t *testing.T) {
	f := newJoinMemoFixture(t)
	first := f.published()
	if got := f.estimated(t, WhatIf{}); got != first {
		t.Fatalf("selectivity %v, want %v", got, first)
	}

	t.Run("refresh", func(t *testing.T) {
		before := f.mgr.Get(f.lid).Data.Leading
		f.skew(t, "lineitem", "l_orderkey", 200)
		if err := f.mgr.Refresh(context.Background(), f.lid); err != nil {
			t.Fatal(err)
		}
		if f.mgr.Get(f.lid).Data.Leading == before {
			t.Fatal("refresh published the same histogram")
		}
		want := f.published()
		if want == first {
			t.Fatal("the skewed data left the join selectivity unchanged; the test shows nothing")
		}
		if got := f.estimated(t, WhatIf{}); got != want {
			t.Errorf("after refresh: selectivity %v, want %v of the new histograms (was %v)", got, want, first)
		}
	})

	t.Run("drop and re-create", func(t *testing.T) {
		old := f.published()
		if !f.mgr.Drop(f.rid) {
			t.Fatal("drop failed")
		}
		f.skew(t, "orders", "o_orderkey", 50)
		if _, err := f.mgr.Create("orders", []string{"o_orderkey"}); err != nil {
			t.Fatal(err)
		}
		want := f.published()
		if want == old {
			t.Fatal("the skewed data left the join selectivity unchanged; the test shows nothing")
		}
		if got := f.estimated(t, WhatIf{}); got != want {
			t.Errorf("after re-create: selectivity %v, want %v of the new histograms (was %v)", got, want, old)
		}
	})

	t.Run("hidden side", func(t *testing.T) {
		v := f.q.Joins[0].VarID
		const pinned = 0.125
		for _, hide := range []stats.ID{f.lid, f.rid} {
			w := WhatIf{Hide: []stats.ID{hide}, Overrides: map[int]float64{v: pinned}}
			p, err := f.sess.OptimizeWhatIf(f.q, w)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.MissingVars) != 1 || p.MissingVars[0] != v {
				t.Errorf("%s hidden: missing %v, want [%d]", hide, p.MissingVars, v)
			}
			if got := f.estimated(t, w); got != pinned {
				t.Errorf("%s hidden: selectivity %v, want the override %v", hide, got, pinned)
			}
			if got, want := f.estimated(t, WhatIf{}), f.published(); got != want {
				t.Errorf("plain call after %s hidden: selectivity %v, want %v", hide, got, want)
			}
		}
	})
}

// TestJoinMemoWarmMatchesCold: on the correctness corpus (the NULL-bearing
// TPC-D database at scale 0.05, z = 2, seed 1, 30 generated queries) with
// every candidate statistic built, a session whose memo has seen the whole
// corpus chooses, bit for bit, the plan a cold session chooses, plain and
// with one used statistic hidden.
func TestJoinMemoWarmMatchesCold(t *testing.T) {
	db, err := datagen.GenerateWithNulls(datagen.Config{Scale: 0.05, Z: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := workload.PropertyQueries(db, 30, workload.Complex, 1001)
	if err != nil {
		t.Fatal(err)
	}
	mgr := stats.NewManager(db, histogram.MaxDiff, 0)
	for _, q := range queries {
		buildCandidateStats(t, mgr, q)
	}
	warm := NewSession(mgr)
	for _, q := range queries {
		if _, err := warm.Optimize(q); err != nil {
			t.Fatal(err)
		}
	}
	joins := 0
	for _, q := range queries {
		joins += len(q.Joins)
		p, err := warm.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		whatIfs := []WhatIf{{}}
		for _, id := range p.UsedStats {
			whatIfs = append(whatIfs, WhatIf{Hide: []stats.ID{id}})
		}
		for _, w := range whatIfs {
			got, err := warm.OptimizeWhatIf(q, w)
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewSession(mgr).OptimizeWhatIf(q, w)
			if err != nil {
				t.Fatal(err)
			}
			if d := diffNodes(got.Root, want.Root, "root"); d != "" {
				t.Errorf("%s hiding %v: warm plan differs from cold: %s", q.SQL(), w.Hide, d)
			}
		}
	}
	if joins == 0 {
		t.Fatal("no join predicate in the corpus; the test shows nothing")
	}
}

// TestSharedSessionJoinMemoUnderRebuilds is the -race test of the memo on
// one shared Session: readers optimize the join while a writer keeps
// publishing new histograms with the same contents (a refresh of one side,
// a drop and re-create of the other). Every read must give either the
// histogram selectivity or, while the dropped side is absent, the magic
// number, and every plan must be one of the two plans those give.
func TestSharedSessionJoinMemoUnderRebuilds(t *testing.T) {
	f := newJoinMemoFixture(t)
	want := f.published()
	withStats, err := f.sess.Optimize(f.q)
	if err != nil {
		t.Fatal(err)
	}
	withoutRight, err := f.sess.OptimizeWhatIf(f.q, WhatIf{Hide: []stats.ID{f.rid}})
	if err != nil {
		t.Fatal(err)
	}

	const readers, reads, rebuilds = 4, 150, 40
	errs := make(chan error, readers+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rebuilds; i++ {
			if err := f.mgr.Refresh(context.Background(), f.lid); err != nil {
				errs <- err
				return
			}
			f.mgr.Drop(f.rid)
			if _, err := f.mgr.Create("orders", []string{"o_orderkey"}); err != nil {
				errs <- err
				return
			}
		}
	}()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				if sel := newEstimator(f.sess, f.q, WhatIf{}).joinSel(f.q.Joins[0]); sel != want && sel != magicJoin {
					errs <- fmt.Errorf("selectivity %v, want %v or the magic %v", sel, want, magicJoin)
					return
				}
				p, err := f.sess.Optimize(f.q)
				if err != nil {
					errs <- err
					return
				}
				if diffNodes(p.Root, withStats.Root, "root") != "" && diffNodes(p.Root, withoutRight.Root, "root") != "" {
					errs <- fmt.Errorf("plan is neither the statistics plan nor the one without %s:\n%s", f.rid, p.Format())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := f.estimated(t, WhatIf{}); got != want {
		t.Errorf("after the rebuilds: selectivity %v, want %v", got, want)
	}
}
