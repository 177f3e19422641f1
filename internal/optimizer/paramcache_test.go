package optimizer

import (
	"strconv"
	"sync"
	"testing"

	"autostats/internal/catalog"
	"autostats/internal/query"
	"autostats/internal/sqlparser"
)

// TestPlanCacheParameterizedHit: the tentpole behavior. Statements that share
// a template and whose constants sit in the same selectivity regime hit one
// cache entry; the served plan carries the new statement's literals.
func TestPlanCacheParameterizedHit(t *testing.T) {
	sess, c := cachedSession(t, 8)
	q1, q2 := dateQuery(10000), dateQuery(10200)
	// No statistics exist, so both constants share the missing-stat bucket.
	p1, err := sess.Optimize(q1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := sess.Optimize(q2)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Fatalf("parameter-differing statements should share an entry: %+v", st)
	}
	if p1 == p2 {
		t.Fatal("a rebound hit must not alias the cached plan")
	}
	if got := p2.Root.Filters[0].Val; got != q2.Filters[0].Val {
		t.Errorf("served plan carries literal %v, want q2's %v", got, q2.Filters[0].Val)
	}
	if p1.Root.Filters[0].Val != q1.Filters[0].Val {
		t.Error("rebinding must not mutate the cached plan's literals")
	}
	if p2.Query != q2 {
		t.Error("served plan must reference the statement it answers")
	}
	// Shape and cost carry over; Signature differs only in the literals.
	if p2.Cost() != p1.Cost() || p2.Root.Op != p1.Root.Op {
		t.Error("same-bucket rebind should preserve shape and cost")
	}
}

// TestPlanCacheRebindSeekFilters: rebinding must reach literals embedded in
// index-seek nodes, not just scan filters — a served seek with a stale
// constant would fetch the wrong rows.
func TestPlanCacheRebindSeekFilters(t *testing.T) {
	sess, c := cachedSession(t, 8)
	if _, err := sess.Manager().Create("orders", []string{"o_orderdate"}); err != nil {
		t.Fatal(err)
	}
	// Find two cutoffs whose histogram estimates land in the same
	// power-of-two bucket so the second lookup is a guaranteed hit.
	mk := func(cutoff int64) *query.Select { return dateQuery(cutoff) }
	base := int64(10500) // selective tail of the 8035..10591 date range
	b0 := sess.filterBucket(mk(base).Filters[0])
	var partner int64
	for d := base + 1; d < base+400; d++ {
		if sess.filterBucket(mk(d).Filters[0]) == b0 {
			partner = d
			break
		}
	}
	if partner == 0 {
		t.Skip("no same-bucket partner cutoff in range")
	}
	q1, q2 := mk(base), mk(partner)
	p1, err := sess.Optimize(q1)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Root.Op != OpIndexSeek {
		t.Fatalf("selective predicate with a histogram should seek, got %s", p1.Root.Op)
	}
	p2, err := sess.Optimize(q2)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("same-bucket cutoffs should hit: %+v", st)
	}
	if got := p2.Root.SeekFilters[0].Val; got != q2.Filters[0].Val {
		t.Errorf("seek literal = %v, want %v", got, q2.Filters[0].Val)
	}
	if p1.Root.SeekFilters[0].Val != q1.Filters[0].Val {
		t.Error("cached plan's seek literal must be untouched")
	}
}

// TestPlanCacheBucketKeying: constants in different selectivity regimes get
// different keys — a plan costed for a 0.1% predicate must not be served to a
// 50% one.
func TestPlanCacheBucketKeying(t *testing.T) {
	sess, c := cachedSession(t, 8)
	if _, err := sess.Manager().Create("orders", []string{"o_orderdate"}); err != nil {
		t.Fatal(err)
	}
	wide, narrow := dateQuery(8100), dateQuery(10500) // ~everything vs. tail
	bw := sess.filterBucket(wide.Filters[0])
	bn := sess.filterBucket(narrow.Filters[0])
	if bw == bn {
		t.Fatalf("test constants must straddle a bucket boundary (both %d)", bw)
	}
	if _, err := sess.Optimize(wide); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Optimize(narrow); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 2 || st.Size != 2 {
		t.Errorf("different regimes must be distinct entries: %+v", st)
	}
}

// TestPlanCacheCanonicalTextHit: trivially different SQL texts — whitespace,
// keyword/identifier case, comments, redundant parentheses — must share one
// cache entry (the PR 3 benchmark's 0% hit rate came from keying on raw SQL).
func TestPlanCacheCanonicalTextHit(t *testing.T) {
	sess, c := cachedSession(t, 8)
	schema := sess.Manager().Database().Schema
	variants := []string{
		"SELECT * FROM orders WHERE o_totalprice > 1000",
		"select * from ORDERS where O_TOTALPRICE > 1000",
		"SELECT  *  FROM\n\torders\nWHERE  o_totalprice  >  1000",
		"SELECT * FROM orders WHERE (o_totalprice > 1000)",
		"SELECT * FROM orders WHERE ((o_totalprice > 1000)) -- tail comment",
		"SELECT /* hint */ * FROM orders WHERE o_totalprice > 1000 /* done */",
	}
	var first *Plan
	for i, sql := range variants {
		q, err := sqlparser.ParseSelect(schema, sql)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		p, err := sess.Optimize(q)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if i == 0 {
			first = p
			continue
		}
		if p != first {
			t.Errorf("variant %d (%q) missed the cache", i, sql)
		}
	}
	if st := c.Stats(); st.Hits != uint64(len(variants)-1) || st.Misses != 1 || st.Size != 1 {
		t.Errorf("canonicalization stats: %+v", st)
	}
}

// TestPlanCacheFilterCountBypass: statements with more filters than the key's
// bucket vector can carry skip the cache in both directions.
func TestPlanCacheFilterCountBypass(t *testing.T) {
	sess, c := cachedSession(t, 8)
	filters := make([]query.Filter, maxCachedParams+1)
	for i := range filters {
		filters[i] = query.Filter{Col: col("orders", "o_totalprice"), Op: query.Gt, Val: catalog.NewFloat(float64(i))}
	}
	q := mkSelect([]string{"orders"}, filters, nil, nil)
	p1, err := sess.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := sess.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Error("over-wide statements must not be cached")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.Size != 0 {
		t.Errorf("bypass should not touch the cache: %+v", st)
	}
}

// TestCacheKeyNoAlloc: assembling the cache key from the precomputed template
// and buckets performs zero allocations — every other field is an atomic read
// or a plain copy.
func TestCacheKeyNoAlloc(t *testing.T) {
	sess, _ := cachedSession(t, 8)
	q := dateQuery(10400)
	tmpl, buckets := q.Template(), sess.planBuckets(q)
	if n := testing.AllocsPerRun(200, func() {
		key := sess.cacheKey(tmpl, buckets)
		_ = key
	}); n != 0 {
		t.Errorf("cacheKey allocates %v times per call, want 0", n)
	}
}

// distinctTemplates returns sixteen single-filter statements on orders with
// pairwise different templates: constants are lifted out of the key, so
// distinct entries need distinct shapes — the operator, the filtered column
// and the projection vary.
func distinctTemplates() []*query.Select {
	ops := []query.CmpOp{query.Gt, query.Ge, query.Lt, query.Le}
	out := make([]*query.Select, 16)
	for i := range out {
		var f query.Filter
		if i%2 == 0 {
			f = query.Filter{Col: col("orders", "o_totalprice"), Op: ops[i/2%4], Val: catalog.NewFloat(1000)}
		} else {
			f = query.Filter{Col: col("orders", "o_custkey"), Op: ops[i/2%4], Val: catalog.NewInt(50)}
		}
		out[i] = mkSelect([]string{"orders"}, []query.Filter{f}, nil, nil)
		if i >= 8 {
			out[i].Projection = []query.ColumnRef{col("orders", "o_custkey")}
		}
	}
	return out
}

// TestPlanCacheConcurrentExactCounts is the -race test of the single lock:
// eight goroutines sharing one session optimize sixteen templates through a capacity-8 cache
// (so lookups, inserts and evictions all interleave) while each also drains
// Stats / Keys / Len. Every snapshot must respect the capacity, and at the
// end the counters must be exact: one lookup per Optimize, one eviction per
// insert beyond capacity, Stats / Len / Keys in agreement, and Clear dropping
// the entries but not the counters.
func TestPlanCacheConcurrentExactCounts(t *testing.T) {
	const (
		workers  = 8
		perW     = 120
		capacity = 8
	)
	sess, c := cachedSession(t, capacity)
	queries := distinctTemplates()
	const evictionMetric = "optimizer.plancache.evictions"
	evictionsBefore := sess.Obs().Snapshot().Counters[evictionMetric]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				if _, err := sess.Optimize(queries[(w*3+i)%len(queries)]); err != nil {
					t.Errorf("optimize: %v", err)
					return
				}
				if i%8 != 0 {
					continue
				}
				if st := c.Stats(); st.Size > st.Capacity || st.Capacity != capacity {
					t.Errorf("snapshot over capacity: %+v", st)
					return
				}
				if n := len(c.Keys()); n > capacity {
					t.Errorf("Keys snapshot has %d entries, capacity %d", n, capacity)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	st := c.Stats()
	if st.Hits+st.Misses != workers*perW {
		t.Errorf("hits %d + misses %d != %d lookups", st.Hits, st.Misses, workers*perW)
	}
	if st.Size != capacity || len(c.Keys()) != st.Size {
		t.Errorf("Size=%d len(Keys)=%d, want both %d", st.Size, len(c.Keys()), capacity)
	}
	// Two sessions can miss on one key and both publish; the second put
	// replaces in place, so inserts <= misses and every insert past the
	// capacity evicted exactly one entry.
	if st.Evictions == 0 || st.Evictions > st.Misses-capacity {
		t.Errorf("evictions = %d with %d misses at capacity %d", st.Evictions, st.Misses, capacity)
	}
	if got := sess.Obs().Snapshot().Counters[evictionMetric] - evictionsBefore; uint64(got) != st.Evictions {
		t.Errorf("session metric saw %d evictions, cache %d", got, st.Evictions)
	}
}

// TestPlanCacheExactLRUAtDefaultCapacity: one recency list means the victim
// is the globally least recently used entry at every size, the facade's
// default 1 024 included (eight hashed shards evicted per shard, so which
// entry went depended on where its template hashed).
func TestPlanCacheExactLRUAtDefaultCapacity(t *testing.T) {
	const capacity = 1024
	sess, _ := testSession(t, 2)
	q := dateQuery(10400)
	p, err := sess.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	c := NewPlanCache(capacity)
	key := func(i int) planKey { return planKey{template: "t" + strconv.Itoa(i)} }
	for i := 0; i < capacity; i++ {
		if c.put(key(i), p) {
			t.Fatalf("insert %d evicted below capacity", i)
		}
	}
	// Touch the even entries in order: recency is now odds ascending (oldest
	// first), then evens ascending.
	var victims []int
	for i := 1; i < capacity; i += 2 {
		victims = append(victims, i)
	}
	for i := 0; i < capacity; i += 2 {
		if _, ok := c.get(key(i), q); !ok {
			t.Fatalf("entry %d missing before any eviction", i)
		}
		victims = append(victims, i)
	}
	for n, victim := range victims {
		if _, ok := c.entries[key(victim)]; !ok {
			t.Fatalf("entry %d evicted early (before insert %d)", victim, n)
		}
		if !c.put(key(capacity+n), p) {
			t.Fatalf("insert %d at capacity evicted nothing", n)
		}
		if _, ok := c.entries[key(victim)]; ok {
			t.Fatalf("insert %d did not evict the least recently used entry %d", n, victim)
		}
	}
	if st := c.Stats(); st.Size != capacity || st.Evictions != capacity {
		t.Errorf("after replacing every entry: %+v", st)
	}
}
