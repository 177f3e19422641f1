package optimizer

import (
	"fmt"
	"sort"

	"autostats/internal/obs"
	"autostats/internal/query"
	"autostats/internal/stats"
)

// Session is one optimization session against a database. It carries the two
// server extensions of §7.2:
//
//   - IgnoreStatisticsSubset: a connection-specific buffer of statistics the
//     optimizer must not consider (used by the Shrinking Set algorithm to
//     obtain Plan(Q, S−{s}) without physically dropping s);
//   - SetSelectivityOverrides: parameterized selectivities for predicates
//     that would otherwise fall back to default magic numbers (used by MNSA
//     to construct P_low and P_high).
//
// Sessions are not safe for concurrent use; create one per goroutine (Clone
// is the cheap way to do that). The attached PlanCache, by contrast, IS safe
// for concurrent use and is intentionally shared across clones.
type Session struct {
	mgr *stats.Manager
	// prov is the statistics view every estimator read goes through. It
	// defaults to mgr; SetStatsProvider substitutes a wrapper (fault
	// injection, tracing) without touching the manager used for mutations.
	prov  stats.Provider
	Magic MagicNumbers

	// ignored and overrides are the what-if buffers. While either is
	// non-empty Optimize bypasses the plan cache in both directions, which is
	// why neither is part of the cache key.
	ignored   map[stats.ID]bool
	overrides map[int]float64
	// tmplQ / tmplStr memoize the last statement template render: sessions
	// are single-goroutine and the MNSA loop re-optimizes the same *Select
	// under default magic numbers once per statistic it builds.
	tmplQ   *query.Select
	tmplStr string
	// degraded collects the reasons statistics could not be provided for
	// the statement being processed (set by MNSA when a build fails,
	// cleared per statement). While non-empty, Optimize tags plans
	// Degraded and bypasses the plan cache like any other what-if state.
	degraded map[string]bool
	cache    *PlanCache
	met      sessionMetrics
}

// sessionMetrics caches the session's observability handles. A session is
// single-goroutine, so handles are captured once at construction (from the
// manager's registry — call stats.Manager.SetObsRegistry before creating
// sessions) and shared by clones.
type sessionMetrics struct {
	reg             *obs.Registry
	optimizations   *obs.Counter
	optimizeLatency *obs.Timing
	cacheHits       *obs.Counter
	cacheMisses     *obs.Counter
	cacheEvictions  *obs.Counter
	degradedPlans   *obs.Counter
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
		degradedPlans:   reg.Counter("degraded.plans"),
		cacheBypasses:   reg.Counter("degraded.plancache_bypasses"),
	}
}

// NewSession creates a session over the given statistics manager with
// default magic numbers.
func NewSession(mgr *stats.Manager) *Session {
	return &Session{
		mgr:       mgr,
		prov:      mgr,
		Magic:     DefaultMagicNumbers(),
		ignored:   make(map[stats.ID]bool),
		overrides: make(map[int]float64),
		met:       newSessionMetrics(mgr.ObsRegistry()),
	}
}

// Manager returns the underlying statistics manager.
func (s *Session) Manager() *stats.Manager { return s.mgr }

// SetStatsProvider routes all of the session's statistics reads through p
// (nil restores the manager itself). Mutating paths — statistics creation
// by MNSA, maintenance — keep going to the Manager; only the optimizer's
// read-side view is swapped. Used by the fault-injection oracle to present
// stale or torn statistics state to the optimizer.
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

// SetPlanCache attaches a plan cache (nil detaches). Shared caches are safe:
// the cache key embeds the magic numbers, and a session holding what-if state
// (ignore buffer, overrides, degraded reasons) does not touch the cache.
func (s *Session) SetPlanCache(c *PlanCache) { s.cache = c }

// PlanCache returns the attached plan cache, or nil.
func (s *Session) PlanCache() *PlanCache { return s.cache }

// Clone returns an independent session for use by another goroutine: same
// manager, magic numbers and (shared, thread-safe) plan cache, but fresh
// ignore and override buffers so the clones cannot interfere.
func (s *Session) Clone() *Session {
	return &Session{
		mgr:       s.mgr,
		prov:      s.prov,
		Magic:     s.Magic,
		ignored:   make(map[stats.ID]bool),
		overrides: make(map[int]float64),
		cache:     s.cache,
		met:       s.met,
	}
}

// IgnoreStatisticsSubset replaces the session's ignore buffer: subsequent
// optimizations behave as if the listed statistics did not exist. The dbID
// parameter mirrors the server call signature; it must match the managed
// database's name ("" matches any). A mismatch returns an error and leaves
// the buffer untouched — silently ignoring it would make Shrinking Set
// results look like every statistic is essential.
func (s *Session) IgnoreStatisticsSubset(dbID string, ids []stats.ID) error {
	if dbID != "" && dbID != s.mgr.Database().Name {
		return fmt.Errorf("optimizer: IgnoreStatisticsSubset for database %q, but session manages %q", dbID, s.mgr.Database().Name)
	}
	s.ignored = make(map[stats.ID]bool, len(ids))
	for _, id := range ids {
		s.ignored[id] = true
	}
	return nil
}

// ClearIgnored empties the ignore buffer.
func (s *Session) ClearIgnored() {
	s.ignored = make(map[stats.ID]bool)
}

// Ignored reports whether the statistic is currently ignored.
func (s *Session) Ignored(id stats.ID) bool { return s.ignored[id] }

// SetSelectivityOverrides replaces the per-predicate selectivity parameters.
// An override applies ONLY where the optimizer would otherwise use a default
// magic number; predicates covered by visible statistics are unaffected
// (§7.2: "accept the selectivity of such predicates as a parameter rather
// than using the default magic number").
func (s *Session) SetSelectivityOverrides(ov map[int]float64) {
	s.overrides = make(map[int]float64, len(ov))
	for k, v := range ov {
		s.overrides[k] = v
	}
}

// ClearOverrides removes all selectivity overrides.
func (s *Session) ClearOverrides() {
	s.overrides = make(map[int]float64)
}

// MarkDegraded records one reason the current statement is planned in
// degraded mode (a statistic the analysis wanted could not be built). While
// any reason is recorded, Optimize tags plans with the reasons and bypasses
// the plan cache so the degraded plan is never reused once statistics
// recover. MNSA calls this on a failed build; ClearDegraded resets it at the
// next statement boundary.
func (s *Session) MarkDegraded(reason string) {
	if s.degraded == nil {
		s.degraded = make(map[string]bool)
	}
	s.degraded[reason] = true
}

// ClearDegraded resets the degraded-mode reasons for a new statement.
func (s *Session) ClearDegraded() { s.degraded = nil }

// DegradedReasons returns the recorded reasons, sorted; nil when healthy.
func (s *Session) DegradedReasons() []string {
	if len(s.degraded) == 0 {
		return nil
	}
	out := make([]string, 0, len(s.degraded))
	for r := range s.degraded {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}
