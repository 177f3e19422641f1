package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentCounters hammers one counter, one float counter, one gauge,
// one high-water gauge and one timing from many goroutines; totals and the
// maximum must be exact (run under -race as part of tier-1).
func TestConcurrentCounters(t *testing.T) {
	r := New()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("test.counter")
			f := r.FloatCounter("test.float")
			g := r.Gauge("test.gauge")
			hw := r.Gauge("test.high_water")
			tm := r.Timing("test.timing")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				f.Add(0.5)
				g.Add(1)
				hw.SetMax(int64(w*perWorker + i))
				tm.Observe(time.Millisecond)
			}
		}()
	}
	wg.Wait()

	const total = workers * perWorker
	if got := r.Counter("test.counter").Value(); got != total {
		t.Errorf("counter = %d, want %d", got, total)
	}
	if got := r.FloatCounter("test.float").value(); got != total/2 {
		t.Errorf("float counter = %g, want %d", got, total/2)
	}
	if got := r.Gauge("test.gauge").Value(); got != total {
		t.Errorf("gauge = %d, want %d", got, total)
	}
	if got := r.Gauge("test.high_water").Value(); got != total-1 {
		t.Errorf("high-water gauge = %d, want %d", got, total-1)
	}
	ts := r.Timing("test.timing").Snapshot()
	if ts.Count != total || ts.Sum != total*time.Millisecond {
		t.Errorf("timing count=%d sum=%v, want count=%d sum=%v", ts.Count, ts.Sum, total, total*time.Millisecond)
	}
	if ts.Min != time.Millisecond || ts.Max != time.Millisecond {
		t.Errorf("timing min=%v max=%v, want 1ms/1ms", ts.Min, ts.Max)
	}
}

// TestHandleInterning: the same name returns the same handle, so cached
// handles and ad-hoc lookups observe one metric.
func TestHandleInterning(t *testing.T) {
	r := New()
	a, b := r.Counter("x"), r.Counter("x")
	if a != b {
		t.Fatal("Counter(x) returned two different handles")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("increment through one handle not visible through the other")
	}
}

// TestTimingSnapshotConsistency: every snapshot taken while writers are
// running must have sum == count * 1ms exactly — count and sum move under one
// lock, so a torn (count bumped, sum not) snapshot can never be observed.
func TestTimingSnapshotConsistency(t *testing.T) {
	r := New()
	tm := r.Timing("t")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					tm.Observe(time.Millisecond)
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		s := tm.Snapshot()
		if s.Sum != time.Duration(s.Count)*time.Millisecond {
			t.Fatalf("torn snapshot: count=%d sum=%v", s.Count, s.Sum)
		}
		var bucketTotal int64
		for _, b := range s.Buckets {
			bucketTotal += b
		}
		if bucketTotal != s.Count {
			t.Fatalf("bucket total %d != count %d", bucketTotal, s.Count)
		}
	}
	close(stop)
	wg.Wait()
}

// TestTimingBucketBounds: bucket i holds observations of at most 2^i µs
// and more than 2^(i-1) µs; the last bucket takes everything above.
func TestTimingBucketBounds(t *testing.T) {
	const us = time.Microsecond
	for _, c := range []struct {
		d      time.Duration
		bucket int
	}{
		{0, 0},
		{1 * us, 0},
		{1900 * time.Nanosecond, 1},
		{2 * us, 1},
		{3 * us, 2},
		{4 * us, 2},
		{5 * us, 3},
		{(1 << 18) * us, 18},
		{(1<<18 + 1) * us, timingBuckets - 1},
		{(1 << 19) * us, timingBuckets - 1},
		{(1<<19 + 1) * us, timingBuckets - 1},
	} {
		var tm Timing
		tm.Observe(c.d)
		if got := tm.Snapshot().Buckets; got[c.bucket] != 1 {
			t.Errorf("Observe(%v) filed in %v, want bucket %d", c.d, got, c.bucket)
		}
	}
	var tm Timing
	if allocs := testing.AllocsPerRun(100, func() { tm.Observe(3 * us) }); allocs != 0 {
		t.Errorf("Observe allocates %.0f times", allocs)
	}
}

// TestRegistrySnapshotAndText: a snapshot holds every registered metric, and
// the text dump is sorted and parseable.
func TestRegistrySnapshotAndText(t *testing.T) {
	r := New()
	r.Counter("b.count").Add(2)
	r.Counter("a.count").Add(1)
	r.FloatCounter("c.units").Add(1.5)
	r.Gauge("d.gauge").Set(7)
	r.Timing("e.lat").Observe(2 * time.Millisecond)

	s := r.Snapshot()
	if s.Counters["a.count"] != 1 || s.Counters["b.count"] != 2 {
		t.Errorf("counters snapshot = %v", s.Counters)
	}
	if s.FloatCounters["c.units"] != 1.5 {
		t.Errorf("float snapshot = %v", s.FloatCounters)
	}
	if s.Gauges["d.gauge"] != 7 {
		t.Errorf("gauge snapshot = %v", s.Gauges)
	}
	if s.Timings["e.lat"].Count != 1 {
		t.Errorf("timing snapshot = %+v", s.Timings["e.lat"])
	}

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("text dump has %d lines, want 5:\n%s", len(lines), sb.String())
	}
	for i := 1; i < len(lines); i++ {
		if lines[i-1] >= lines[i] {
			t.Errorf("text dump not sorted: %q before %q", lines[i-1], lines[i])
		}
	}
	if lines[0] != "a.count 1" {
		t.Errorf("first line = %q, want \"a.count 1\"", lines[0])
	}
}

// TestConcurrentRegistryLookups races metric creation against Snapshot; run
// under -race.
func TestConcurrentRegistryLookups(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			names := []string{"m.a", "m.b", "m.c", "m.d"}
			for i := 0; i < 500; i++ {
				r.Counter(names[(i+w)%len(names)]).Inc()
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, name := range []string{"m.a", "m.b", "m.c", "m.d"} {
		total += r.Counter(name).Value()
	}
	if total != 8*500 {
		t.Errorf("total increments = %d, want %d", total, 8*500)
	}
}
