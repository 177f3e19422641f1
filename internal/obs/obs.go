// Package obs is the dependency-free observability layer of the auto-stats
// pipeline: a registry of atomic counters, gauges and timing histograms, plus
// a pluggable span-tracing hook (see trace.go).
//
// The paper's whole argument is quantitative — how many statistics MNSA
// avoids building, how much optimization and update cost the drop-list saves
// — so every subsystem (optimizer, statistics manager, MNSA, Shrinking Set,
// maintenance) emits its counts and timings here instead of ad-hoc prints.
// The experiment tables of EXPERIMENTS.md can be re-derived from a registry
// snapshot.
//
// Concurrency model: counters, float counters and gauges are single atomic
// words — increments from any number of goroutines are safe and never block.
// Timings take a per-timing mutex so that count/sum/min/max move together and
// a Snapshot is internally consistent. Metric handles are interned: looking
// up the same name twice returns the same handle, so hot paths should cache
// the handle once and hit the atomic directly.
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64 metric.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is allowed but makes the metric no longer monotone;
// prefer a Gauge for values that go down).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// FloatCounter is a monotonically increasing float64 metric, used for
// work-unit accounting (statistics build/update cost units are fractional).
type FloatCounter struct{ bits atomic.Uint64 }

// Add adds delta via a compare-and-swap loop.
func (c *FloatCounter) Add(delta float64) {
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// value returns the current total.
func (c *FloatCounter) value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is an instantaneous int64 value (set or adjusted, not accumulated).
type Gauge struct{ v atomic.Int64 }

// Set stores the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// SetMax raises the value to n if n is larger, making the gauge a
// high-water mark that concurrent writers cannot lower.
func (g *Gauge) SetMax(n int64) {
	for cur := g.v.Load(); n > cur; cur = g.v.Load() {
		if g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// timingBuckets is the number of log2-microsecond histogram buckets: bucket i
// counts observations of at most 2^i microseconds, the last bucket is
// unbounded (2^19 µs ≈ 0.5 s).
const timingBuckets = 20

// Timing is a latency histogram with exact count/sum/min/max and
// log2-microsecond buckets. All fields move together under one mutex so
// snapshots are internally consistent.
type Timing struct {
	mu      sync.Mutex
	count   int64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
	buckets [timingBuckets]int64
}

// Observe records one duration.
func (t *Timing) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	// The smallest i with ceil(d / 1µs) <= 2^i.
	idx := 0
	if us := uint64((d + time.Microsecond - 1) / time.Microsecond); us > 1 {
		idx = min(bits.Len64(us-1), timingBuckets-1)
	}
	t.mu.Lock()
	t.count++
	t.sum += d
	if t.count == 1 || d < t.min {
		t.min = d
	}
	if d > t.max {
		t.max = d
	}
	t.buckets[idx]++
	t.mu.Unlock()
}

// TimingSnapshot is a consistent point-in-time copy of a Timing.
type TimingSnapshot struct {
	Count   int64
	Sum     time.Duration
	Min     time.Duration
	Max     time.Duration
	Buckets [timingBuckets]int64
}

// mean returns Sum/Count, or 0 before any observation.
func (s TimingSnapshot) mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Snapshot returns a consistent copy of the histogram.
func (t *Timing) Snapshot() TimingSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TimingSnapshot{Count: t.count, Sum: t.sum, Min: t.min, Max: t.max, Buckets: t.buckets}
}

// Registry interns metrics by name and fans span events out to tracers. The
// zero value is not usable; construct with New. Metric names are dotted paths
// ("optimizer.plancache.hits"); one name must keep one metric kind.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	floats   map[string]*FloatCounter
	gauges   map[string]*Gauge
	timings  map[string]*Timing

	tracers atomic.Pointer[[]Tracer]
	spanSeq atomic.Uint64
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		floats:   make(map[string]*FloatCounter),
		gauges:   make(map[string]*Gauge),
		timings:  make(map[string]*Timing),
	}
}

// Default is the process-wide registry. Components default to it when no
// registry is injected; the CLIs' -metrics flags dump it.
var Default = New()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// FloatCounter returns the named float counter, creating it on first use.
func (r *Registry) FloatCounter(name string) *FloatCounter {
	r.mu.RLock()
	c := r.floats[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.floats[name]; c == nil {
		c = &FloatCounter{}
		r.floats[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timing returns the named timing histogram, creating it on first use.
func (r *Registry) Timing(name string) *Timing {
	r.mu.RLock()
	t := r.timings[name]
	r.mu.RUnlock()
	if t != nil {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t = r.timings[name]; t == nil {
		t = &Timing{}
		r.timings[name] = t
	}
	return t
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters      map[string]int64
	FloatCounters map[string]float64
	Gauges        map[string]int64
	Timings       map[string]TimingSnapshot
}

// Snapshot copies every metric. Each metric is read atomically (timings under
// their own mutex); the set of metrics is the set registered at call time.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:      make(map[string]int64, len(r.counters)),
		FloatCounters: make(map[string]float64, len(r.floats)),
		Gauges:        make(map[string]int64, len(r.gauges)),
		Timings:       make(map[string]TimingSnapshot, len(r.timings)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, c := range r.floats {
		s.FloatCounters[name] = c.value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, t := range r.timings {
		s.Timings[name] = t.Snapshot()
	}
	return s
}

// WriteText dumps every metric as one "name value" line in name order — the
// expvar-style text form behind the CLIs' -metrics flags. Timings render as
// count/sum/mean/min/max.
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	lines := make([]string, 0, len(s.Counters)+len(s.FloatCounters)+len(s.Gauges)+len(s.Timings))
	for name, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("%s %d", name, v))
	}
	for name, v := range s.FloatCounters {
		lines = append(lines, fmt.Sprintf("%s %.3f", name, v))
	}
	for name, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("%s %d", name, v))
	}
	for name, t := range s.Timings {
		lines = append(lines, fmt.Sprintf("%s count=%d sum=%s mean=%s min=%s max=%s",
			name, t.Count, t.Sum, t.mean(), t.Min, t.Max))
	}
	sort.Strings(lines)
	_, err := io.WriteString(w, strings.Join(lines, "\n"))
	if err == nil && len(lines) > 0 {
		_, err = io.WriteString(w, "\n")
	}
	return err
}
