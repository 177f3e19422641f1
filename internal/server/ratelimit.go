package server

import (
	"slices"
	"sync"
	"time"
)

// tenantLimiter enforces a per-tenant token-bucket quota: each tenant's
// bucket refills at rps tokens per second up to burst, and every admitted
// request consumes one token. A tenant that exceeds its quota is rejected
// with CodeRateLimited BEFORE admission control, so one hot tenant cannot
// starve the shared worker queue — the multi-tenant fairness half of the
// overload story (the queue bound is the aggregate half).
//
// Buckets are created lazily (full) on a tenant's first request, and the map
// never holds more than maxTrackedBuckets, so hostile tenant-name churn can
// neither grow the table without limit nor make each new name scan it.
type tenantLimiter struct {
	rps   float64
	burst float64

	mu      sync.Mutex
	buckets map[string]*tokenBucket
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

// maxTrackedBuckets bounds the bucket map; a new tenant that finds it full
// makes room first (see makeRoomLocked).
const maxTrackedBuckets = 4096

// newTenantLimiter builds a limiter, or returns nil (no limiting) for rps <= 0.
// burst <= 0 defaults to one second of quota, floored at 1.
func newTenantLimiter(rps float64, burst int) *tenantLimiter {
	if rps <= 0 {
		return nil
	}
	b := float64(burst)
	if b <= 0 {
		b = rps
	}
	if b < 1 {
		b = 1
	}
	return &tenantLimiter{rps: rps, burst: b, buckets: make(map[string]*tokenBucket)}
}

// allow consumes one token from the tenant's bucket at time now, reporting
// whether the request is within quota.
func (l *tenantLimiter) allow(tenant string, now time.Time) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	bk := l.buckets[tenant]
	if bk == nil {
		if len(l.buckets) >= maxTrackedBuckets {
			l.makeRoomLocked(now)
		}
		bk = &tokenBucket{tokens: l.burst, last: now}
		l.buckets[tenant] = bk
	}
	if elapsed := now.Sub(bk.last).Seconds(); elapsed > 0 {
		bk.tokens += elapsed * l.rps
		if bk.tokens > l.burst {
			bk.tokens = l.burst
		}
		bk.last = now
	}
	if bk.tokens < 1 {
		return false
	}
	bk.tokens--
	return true
}

// makeRoomLocked drops the buckets idle long enough to be full again, which
// carry nothing a fresh bucket would not, and then the least recently used
// buckets until three quarters of maxTrackedBuckets remain. One pass sorts
// at most the cap and leaves room for a quarter of it, so a flood of new
// names costs each O(log cap) amortised instead of a scan of the map; an
// evicted tenant regains at most one burst.
func (l *tenantLimiter) makeRoomLocked(now time.Time) {
	refill := time.Duration(l.burst / l.rps * float64(time.Second))
	type entry struct {
		name string
		last time.Time
	}
	kept := make([]entry, 0, len(l.buckets))
	for name, bk := range l.buckets {
		if now.Sub(bk.last) > refill {
			delete(l.buckets, name)
		} else {
			kept = append(kept, entry{name, bk.last})
		}
	}
	excess := len(kept) - maxTrackedBuckets*3/4
	if excess <= 0 {
		return
	}
	slices.SortFunc(kept, func(a, b entry) int { return a.last.Compare(b.last) })
	for _, e := range kept[:excess] {
		delete(l.buckets, e.name)
	}
}
