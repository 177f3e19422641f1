package optimizer

import (
	"fmt"
	"sync"
	"testing"

	"autostats/internal/catalog"
	"autostats/internal/query"
	"autostats/internal/stats"
)

// TestSharedSessionConcurrentWhatIf is the -race test of the what-if rule on
// one shared Session: eight goroutines interleave plain optimizations and
// what-if probes (every missing variable pinned to ε, to 1−ε, and one
// statistic hidden) on the same *query.Select values through one plan cache.
// Every plan must equal the plan computed serially beforehand, and the cache
// must have seen exactly one lookup per plain call and none per probe.
func TestSharedSessionConcurrentWhatIf(t *testing.T) {
	sess, _ := testSession(t, 2)
	mgr := sess.Manager()
	for _, c := range [][2]string{{"orders", "o_orderdate"}, {"lineitem", "l_orderkey"}, {"orders", "o_orderkey"}} {
		if _, err := mgr.Create(c[0], []string{c[1]}); err != nil {
			t.Fatal(err)
		}
	}
	queries := []*query.Select{
		dateQuery(10400),
		mkSelect([]string{"lineitem", "orders"},
			[]query.Filter{
				{Col: col("lineitem", "l_quantity"), Op: query.Lt, Val: catalog.NewFloat(10)},
				{Col: col("orders", "o_orderdate"), Op: query.Gt, Val: catalog.NewDate(10400)},
			},
			[]query.JoinPred{{Left: col("lineitem", "l_orderkey"), Right: col("orders", "o_orderkey")}},
			[]query.ColumnRef{col("orders", "o_orderpriority")}),
		mkSelect([]string{"orders"},
			[]query.Filter{{Col: col("orders", "o_totalprice"), Op: query.Gt, Val: catalog.NewFloat(100)}},
			nil, []query.ColumnRef{col("orders", "o_orderpriority")}),
	}
	hide := []stats.ID{stats.MakeID("orders", []string{"o_orderdate"})}

	type call struct {
		q    *query.Select
		w    WhatIf
		want *Plan
	}
	var calls []call
	for _, q := range queries {
		plain, err := sess.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		low := make(map[int]float64, len(plain.MissingVars))
		high := make(map[int]float64, len(plain.MissingVars))
		for _, v := range plain.MissingVars {
			low[v], high[v] = 0.0005, 1-0.0005
		}
		for _, w := range []WhatIf{{}, {Overrides: low}, {Overrides: high}, {Hide: hide}} {
			want, err := sess.OptimizeWhatIf(q, w)
			if err != nil {
				t.Fatal(err)
			}
			calls = append(calls, call{q, w, want})
		}
	}

	c := NewPlanCache(64)
	sess.SetPlanCache(c)
	const workers, perWorker = 8, 40
	plain := 0
	for g := 0; g < workers; g++ {
		for i := 0; i < perWorker; i++ {
			if calls[(g+i)%len(calls)].w.empty() {
				plain++
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				cl := calls[(g+i)%len(calls)]
				var p *Plan
				var err error
				if cl.w.empty() {
					p, err = sess.Optimize(cl.q)
				} else {
					p, err = sess.OptimizeWhatIf(cl.q, cl.w)
				}
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if p.Signature() != cl.want.Signature() || p.Cost() != cl.want.Cost() {
					t.Errorf("goroutine %d, %s under %s: plan %s cost %v, serial %s cost %v",
						g, cl.q.SQL(), fmt.Sprint(cl.w), p.Signature(), p.Cost(), cl.want.Signature(), cl.want.Cost())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Hits+st.Misses != uint64(plain) {
		t.Errorf("cache lookups = %d hits + %d misses, want %d (one per plain call, none per probe)", st.Hits, st.Misses, plain)
	}
}

// TestCloneIsolation checks that a what-if call leaves nothing behind. The
// per-session ignore and override buffers this test once audited on session
// clones are now the call's WhatIf: the optimizer must not write into the
// caller's Hide slice or Overrides map, must not publish the what-if plan
// into the shared plan cache, and the next plain call on the same Session —
// or on another Session over the same manager and cache — must plan under
// the current statistics again.
func TestCloneIsolation(t *testing.T) {
	sess, _ := testSession(t, 0)
	c := NewPlanCache(4)
	sess.SetPlanCache(c)
	st, err := sess.Manager().Create("orders", []string{"o_orderdate"})
	if err != nil {
		t.Fatal(err)
	}
	id := st.ID
	q := dateQuery(10400)
	before, err := sess.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.MissingVars) != 0 {
		t.Fatalf("o_orderdate is covered, yet missing vars = %v", before.MissingVars)
	}

	hidden, err := sess.OptimizeWhatIf(q, WhatIf{Hide: []stats.ID{id}})
	if err != nil {
		t.Fatal(err)
	}
	if len(hidden.MissingVars) == 0 {
		t.Fatal("hiding the o_orderdate statistic left no missing variable")
	}
	w := WhatIf{Hide: []stats.ID{id}, Overrides: map[int]float64{hidden.MissingVars[0]: 0.5}}
	if _, err := sess.OptimizeWhatIf(q, w); err != nil {
		t.Fatal(err)
	}
	if len(w.Hide) != 1 || w.Hide[0] != id {
		t.Errorf("caller's Hide changed: %v", w.Hide)
	}
	if len(w.Overrides) != 1 || w.Overrides[hidden.MissingVars[0]] != 0.5 {
		t.Errorf("caller's Overrides changed: %v", w.Overrides)
	}
	if st := c.Stats(); st.Size != 1 || st.Hits+st.Misses != 1 {
		t.Errorf("what-if calls touched the cache: %+v, want one entry and one lookup", st)
	}

	other := NewSession(sess.Manager())
	other.SetPlanCache(c)
	for name, s := range map[string]*Session{"same session": sess, "other session": other} {
		after, err := s.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		if after.Signature() != before.Signature() || after.Cost() != before.Cost() || len(after.MissingVars) != 0 {
			t.Errorf("%s: plain plan after what-if = %s cost %v missing %v, before %s cost %v",
				name, after.Signature(), after.Cost(), after.MissingVars, before.Signature(), before.Cost())
		}
	}
}

// TestCloneConcurrentSessions is the -race test of many Sessions over one
// manager sharing one plan cache, each goroutine planning under its own
// divergent overrides (the buffers each goroutine's session clone once held)
// interleaved with plain calls. Every what-if plan must equal the one
// computed serially for that goroutine's overrides.
func TestCloneConcurrentSessions(t *testing.T) {
	sess, _ := testSession(t, 0)
	q := mkSelect([]string{"lineitem"},
		[]query.Filter{{Col: col("lineitem", "l_quantity"), Op: query.Gt, Val: catalog.NewFloat(10)}},
		nil, nil)
	c := NewPlanCache(32)
	sess.SetPlanCache(c)
	plain, err := sess.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.MissingVars) == 0 {
		t.Fatal("l_quantity has no statistic, yet no missing variable")
	}

	const workers, perWorker = 8, 20
	whatIf := make([]WhatIf, workers)
	want := make([]*Plan, workers)
	for g := range whatIf {
		whatIf[g] = WhatIf{Overrides: map[int]float64{plain.MissingVars[0]: 0.1 * float64(g+1)}}
		if want[g], err = sess.OptimizeWhatIf(q, whatIf[g]); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := NewSession(sess.Manager())
			s.SetPlanCache(c)
			for i := 0; i < perWorker; i++ {
				p, err := s.OptimizeWhatIf(q, whatIf[g])
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if p.Signature() != want[g].Signature() || p.Cost() != want[g].Cost() {
					t.Errorf("goroutine %d: plan %s cost %v, serial %s cost %v",
						g, p.Signature(), p.Cost(), want[g].Signature(), want[g].Cost())
					return
				}
				if p, err = s.Optimize(q); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if p.Signature() != plain.Signature() || p.Cost() != plain.Cost() {
					t.Errorf("goroutine %d: plain plan %s cost %v, serial %s cost %v",
						g, p.Signature(), p.Cost(), plain.Signature(), plain.Cost())
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
