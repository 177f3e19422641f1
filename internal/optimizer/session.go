package optimizer

import (
	"sync"

	"autostats/internal/histogram"
	"autostats/internal/obs"
	"autostats/internal/stats"
)

// Session is one optimization session against a database. Besides the
// join selectivity memo, which guards itself, it holds only what is fixed
// once it is set up — the statistics manager, the provider the estimator
// reads through, the plan cache and the metric handles — so any number of
// goroutines may Optimize and OptimizeWhatIf on one Session at once.
// SetPlanCache and SetStatsProvider are configuration: call them before the
// Session is shared. The attached PlanCache is itself concurrency-safe.
//
// The two server extensions of §7.2 are the WhatIf argument of
// OptimizeWhatIf, not state of the session.
type Session struct {
	mgr *stats.Manager
	// prov is the statistics view every estimator read goes through. It
	// defaults to mgr; SetStatsProvider substitutes a wrapper (fault
	// injection, tracing) without touching the manager used for mutations.
	prov  stats.Provider
	cache *PlanCache
	met   sessionMetrics
	// joins is a pointer so that the estimator, which reaches it through
	// the session, stays on the stack: the mutex makes its receiver escape.
	joins *joinMemo
}

// joinMemo holds the join selectivity of each pair of statistics the
// session's estimates have joined, keyed by the pair's IDs. A published
// histogram is never modified, so an entry is valid while both statistics
// still publish the histograms it was computed from; a refresh, or a drop
// followed by a re-create, publishes new ones, and the entry is recomputed
// and overwritten. The memo therefore holds one entry per pair of join
// columns, and at most one superseded histogram pair each. Two goroutines
// that miss together both compute and store the same value; one holding an
// older pair may overwrite a newer entry, which costs the next call a
// recomputation, never a wrong answer.
type joinMemo struct {
	mu sync.RWMutex
	m  map[[2]stats.ID]joinEntry
}

type joinEntry struct {
	left, right *histogram.Histogram
	sel         float64
}

// selectivity returns the clamped histogram.JoinSelectivity of the two
// statistics' leading histograms, computing it only on a miss.
func (j *joinMemo) selectivity(ls, rs *stats.Statistic) float64 {
	key := [2]stats.ID{ls.ID, rs.ID}
	lh, rh := ls.Data.Leading, rs.Data.Leading
	j.mu.RLock()
	e, ok := j.m[key]
	j.mu.RUnlock()
	if ok && e.left == lh && e.right == rh {
		return e.sel
	}
	e = joinEntry{left: lh, right: rh, sel: clampSel(histogram.JoinSelectivity(lh, rh))}
	j.mu.Lock()
	j.m[key] = e
	j.mu.Unlock()
	return e.sel
}

// WhatIf is a statistics configuration to plan under in place of the
// current one: the two server extensions of §7.2. The zero value is the
// current configuration.
type WhatIf struct {
	// Hide lists statistics the optimizer must not consider
	// (Ignore_Statistics_Subset): Shrinking Set obtains Plan(Q, S−{s})
	// without physically dropping s.
	Hide []stats.ID
	// Overrides maps selectivity variable IDs to the selectivity to use
	// where the optimizer would otherwise fall back to a default magic
	// number; predicates covered by visible statistics are unaffected
	// (§7.2: "accept the selectivity of such predicates as a parameter
	// rather than using the default magic number"). MNSA pins them at ε and
	// 1−ε to construct P_low and P_high. The map is read, never written.
	Overrides map[int]float64
}

// empty reports whether w is the current statistics configuration.
func (w WhatIf) empty() bool { return len(w.Hide) == 0 && len(w.Overrides) == 0 }

// sessionMetrics caches the session's observability handles, captured once
// at construction from the manager's registry (call
// stats.Manager.SetObsRegistry before creating sessions).
type sessionMetrics struct {
	reg             *obs.Registry
	optimizations   *obs.Counter
	optimizeLatency *obs.Timing
	cacheHits       *obs.Counter
	cacheMisses     *obs.Counter
	cacheEvictions  *obs.Counter
	cacheBypasses   *obs.Counter
}

func newSessionMetrics(reg *obs.Registry) sessionMetrics {
	return sessionMetrics{
		reg:             reg,
		optimizations:   reg.Counter("optimizer.optimizations"),
		optimizeLatency: reg.Timing("optimizer.optimize.latency"),
		cacheHits:       reg.Counter("optimizer.plancache.hits"),
		cacheMisses:     reg.Counter("optimizer.plancache.misses"),
		cacheEvictions:  reg.Counter("optimizer.plancache.evictions"),
		cacheBypasses:   reg.Counter("degraded.plancache_bypasses"),
	}
}

// NewSession creates a session over the given statistics manager.
func NewSession(mgr *stats.Manager) *Session {
	return &Session{
		mgr:   mgr,
		prov:  mgr,
		met:   newSessionMetrics(mgr.ObsRegistry()),
		joins: &joinMemo{m: make(map[[2]stats.ID]joinEntry)},
	}
}

// Manager returns the underlying statistics manager.
func (s *Session) Manager() *stats.Manager { return s.mgr }

// SetStatsProvider routes all of the session's statistics reads through p
// (nil restores the manager itself). Mutating paths — statistics creation
// by MNSA, maintenance — keep going to the Manager; only the optimizer's
// read-side view is swapped. Used by the fault-injection oracle to present
// stale or torn statistics state to the optimizer. Configuration method: do
// not call while the session is optimizing.
func (s *Session) SetStatsProvider(p stats.Provider) {
	if p == nil {
		s.prov = s.mgr
		return
	}
	s.prov = p
}

// Obs returns the registry the session's optimizer metrics go to (the
// manager's registry at session creation time).
func (s *Session) Obs() *obs.Registry { return s.met.reg }

// SetPlanCache attaches a plan cache (nil detaches). The cache may be shared
// with other sessions. Configuration method: do not call while the session
// is optimizing.
func (s *Session) SetPlanCache(c *PlanCache) { s.cache = c }
