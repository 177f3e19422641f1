package optimizer

import (
	"container/list"
	"strconv"
	"strings"
	"sync"

	"autostats/internal/query"
)

// maxCachedParams bounds the number of lifted filter constants a plan-cache
// key can carry. Statements with more filters bypass the cache entirely
// (mirroring the optimizer's own 16-table join limit); the fixed-size array
// keeps planKey comparable and the lookup path allocation-free.
const maxCachedParams = 16

// bucketMissing marks a lifted constant whose predicate has no statistic: its
// selectivity is a magic number, which does not depend on the constant's
// value, so every such constant shares one bucket.
const bucketMissing = int8(127)

// planKey identifies a cached plan. Two optimizations may share a plan only
// when every input the cost model reads is identical up to constant lifting:
// the statement template (the canonical SQL print with comparison constants
// replaced by '?'), the per-constant selectivity buckets, the statistics
// epoch (bumped by every create/drop/refresh/drop-list change) and the
// storage data version (bumped by every DML row change). A WhatIf is
// deliberately not in the key: Session.OptimizeWhatIf never looks up or
// publishes under a non-empty one.
//
// The bucket vector is what makes constant lifting safe: a constant whose
// estimated selectivity lands in a different power-of-two regime gets a
// different key, so a cached plan is only ever reused where the selectivity
// it was costed under still (approximately) holds. The struct is comparable
// so it can key a map directly.
type planKey struct {
	template    string
	buckets     [maxCachedParams]int8 // slots past len(Filters) stay zero
	epoch       uint64
	dataVersion int64
}

// PlanCacheStats is a point-in-time snapshot of cache effectiveness counters.
type PlanCacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Size      int
	Capacity  int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s PlanCacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// PlanCache is a concurrency-safe LRU cache of optimized plans: one mutex over
// one map and one recency list, so capacity and eviction order are exact at
// every size. It may be shared by several sessions, so workers running the
// same workload share hits. The lock covers a map lookup and a list splice —
// rebinding a hit to new constants happens outside it — and 8 goroutines
// hammering 30 cached statements on two CPUs measured no faster through 8
// hashed shards than through this one lock.
//
// Plans are treated as immutable once published; callers must not mutate a
// Plan returned from the cache. A hit whose constants differ from the entry's
// returns a rebound copy (see rebindPlan), never the entry itself with stale
// literals.
type PlanCache struct {
	capacity int

	mu        sync.Mutex
	order     *list.List                // front = most recently used
	entries   map[planKey]*list.Element // element value is *cacheEntry
	hits      uint64
	misses    uint64
	evictions uint64
}

// cacheEntry stores the plan together with its key. The plan's Query field is
// the representative statement the entry was optimized from; its concrete
// constants are the ones a parameter-differing hit rebinds away from, and its
// SQL() is what introspection (Keys) reports.
type cacheEntry struct {
	key  planKey
	plan *Plan
}

// NewPlanCache creates a cache holding at most capacity plans. Capacity <= 0
// returns nil, which every method treats as a disabled cache.
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		return nil
	}
	return &PlanCache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[planKey]*list.Element, capacity),
	}
}

// get returns the plan cached under key, if present, and marks it recently
// used. When the entry's constants match q's exactly the cached *Plan is
// returned as-is (so repeated optimization of the same statement yields the
// same pointer); otherwise a copy rebound to q's constants is returned.
func (c *PlanCache) get(key planKey, q *query.Select) (*Plan, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	p := el.Value.(*cacheEntry).plan
	c.mu.Unlock()
	// Rebinding happens outside the lock: entries are immutable once
	// published, so only the (cheap) hit bookkeeping needs the mutex.
	if sameConstants(p.Query, q) {
		return p, true
	}
	return rebindPlan(p, q), true
}

// put stores a plan under key, evicting the least recently used entry when
// the cache is full. Reports whether an entry was evicted, so callers can
// mirror the eviction to their own metrics.
func (c *PlanCache) put(key planKey, p *Plan) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).plan = p
		c.order.MoveToFront(el)
		return false
	}
	evicted := false
	if c.order.Len() >= c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
		evicted = true
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, plan: p})
	return evicted
}

// Stats returns a snapshot of the cache counters, taken under the lock and so
// consistent with one another: Hits + Misses is exactly the number of lookups
// that completed before it. Safe on a nil cache.
func (c *PlanCache) Stats() PlanCacheStats {
	if c == nil {
		return PlanCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Size:      c.order.Len(),
		Capacity:  c.capacity,
	}
}

// CachedPlanKey describes one cache entry for inspection: the key fields
// the staleness discipline hinges on, plus the stored plan's signature and
// cost so tests can prove an entry is the plan a fresh optimization would
// produce under that key's state. SQL is the representative statement the
// entry was built from (concrete constants, re-parseable); Template and
// Buckets are the parameterized key the entry is reachable under.
type CachedPlanKey struct {
	SQL         string
	Template    string
	Buckets     string
	Epoch       uint64
	DataVersion int64
	Signature   string
	Cost        float64
}

// Keys returns a snapshot of every cached entry, most recently used first,
// taken atomically under the lock; entries are immutable once published, so
// any entry that appears is exactly what some lookup could have been served.
// It is an introspection hook for correctness harnesses ("no cached plan may
// carry the current epoch yet a stale signature"); production code has no
// reason to call it. Safe on a nil cache.
func (c *PlanCache) Keys() []CachedPlanKey {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CachedPlanKey, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		out = append(out, CachedPlanKey{
			SQL:         e.plan.Query.SQL(),
			Template:    e.key.template,
			Buckets:     formatBuckets(e.key.buckets, len(e.plan.Query.Filters)),
			Epoch:       e.key.epoch,
			DataVersion: e.key.dataVersion,
			Signature:   e.plan.Signature(),
			Cost:        e.plan.Cost(),
		})
	}
	return out
}

// formatBuckets renders the first n bucket slots, "m" for bucketMissing.
func formatBuckets(b [maxCachedParams]int8, n int) string {
	if n > maxCachedParams {
		n = maxCachedParams
	}
	var sb strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		if b[i] == bucketMissing {
			sb.WriteByte('m')
		} else {
			sb.WriteString(strconv.Itoa(int(b[i])))
		}
	}
	return sb.String()
}

// cacheKey assembles the planKey for the session's current state from the
// precomputed template and bucket vector. Every other field is an atomic
// provider read or a plain copy, so the function does not allocate.
func (s *Session) cacheKey(template string, buckets [maxCachedParams]int8) planKey {
	return planKey{
		template:    template,
		buckets:     buckets,
		epoch:       s.prov.Epoch(),
		dataVersion: s.prov.Database().DataVersion(),
	}
}
