package server

import (
	"strconv"
	"testing"
	"time"
)

// TestTenantLimiterBoundsBuckets: a flood of distinct tenant names, all too
// recent to be idle, leaves at most maxTrackedBuckets buckets, while a tenant
// over its quota stays limited as long as fewer than that many other names
// arrive after it.
func TestTenantLimiterBoundsBuckets(t *testing.T) {
	l := newTenantLimiter(1, 1)
	now := time.Unix(0, 0)
	tick := func() time.Time {
		now = now.Add(time.Microsecond)
		return now
	}
	if !l.allow("hot", tick()) || l.allow("hot", tick()) {
		t.Fatal("a burst of 1 admits exactly one request")
	}
	for i := 0; i < maxTrackedBuckets-1; i++ {
		l.allow("t"+strconv.Itoa(i), tick())
	}
	if l.allow("hot", tick()) {
		t.Fatalf("over-quota tenant admitted after %d other names", maxTrackedBuckets-1)
	}
	for i := 0; i < 20000; i++ {
		l.allow("u"+strconv.Itoa(i), tick())
		if n := len(l.buckets); n > maxTrackedBuckets {
			t.Fatalf("%d buckets after %d new names, cap %d", n, i+1, maxTrackedBuckets)
		}
	}
}
