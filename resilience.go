package autostats

import (
	"context"
	"time"

	"autostats/internal/resilience"
	"autostats/internal/stats"
)

// ResilienceOptions configures the resilience stack enabled by
// System.EnableResilience. The zero value selects sensible defaults.
type ResilienceOptions struct {
	// Retries is how many times a transiently failing statistic build is
	// retried after its first attempt (CLI -retries). 0 means 2 (three
	// attempts total); negative disables retries.
	Retries int
	// RetryBaseDelay is the backoff before the first retry, doubling per
	// attempt with deterministic seeded jitter. 0 means 10ms.
	RetryBaseDelay time.Duration
	// BuildTimeout bounds each individual statistic build/refresh attempt;
	// an attempt that exceeds it is treated as a transient failure (retried,
	// then degraded). 0 disables the per-attempt bound.
	BuildTimeout time.Duration
	// BreakerThreshold trips a table's circuit breaker after this many
	// consecutive build failures. 0 means 3.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker rejects builds before
	// admitting a half-open probe. 0 means 30s.
	BreakerCooldown time.Duration
	// Seed drives all deterministic jitter; 0 is a valid seed.
	Seed int64
}

// EnableResilience turns on the resilience layer: every statistic build and
// refresh triggered by tuning, the on-the-fly policy, or maintenance goes
// through per-table circuit breakers, capped-exponential-backoff retry of
// transient failures, and the per-build timeout. When a statistic cannot be
// provided, queries still plan and execute — the optimizer falls back to the
// default magic-number selectivities (§4/§6) for exactly the affected
// predicates and tags the plan Degraded; plans recover to non-degraded
// automatically once builds succeed again. Calling it again replaces the
// stack (breaker state resets).
func (s *System) EnableResilience(opts ResilienceOptions) {
	s.mu.Lock()
	defer s.mu.Unlock()
	retry := resilience.DefaultRetry(opts.Seed)
	switch {
	case opts.Retries > 0:
		retry.MaxAttempts = opts.Retries + 1
	case opts.Retries < 0:
		retry.MaxAttempts = 1
	}
	if opts.RetryBaseDelay > 0 {
		retry.BaseDelay = opts.RetryBaseDelay
	}
	g := resilience.NewGuard(s.mgr, resilience.GuardConfig{
		Retry: retry,
		Breaker: resilience.BreakerConfig{
			FailureThreshold: opts.BreakerThreshold,
			Cooldown:         opts.BreakerCooldown,
		},
		BuildTimeout: opts.BuildTimeout,
		Seed:         opts.Seed,
	})
	s.guard = g
	s.auto.Guard = g
}

// ResilienceEnabled reports whether the resilience layer is active.
func (s *System) ResilienceEnabled() bool { return s.guard != nil }

// BreakerStates snapshots the per-table circuit breakers (nil when the
// resilience layer is disabled or no table has been gated yet).
func (s *System) BreakerStates() []resilience.TableState {
	if s.guard == nil {
		return nil
	}
	return s.guard.Breakers().States()
}

// RunMaintenanceCtx applies the §6 maintenance policy once, honoring
// cancellation between tables and statistics, and returns the full report.
// With resilience enabled the pass skips open-breaker tables and tolerates
// per-table failures (recorded in the report) instead of aborting.
func (s *System) RunMaintenanceCtx(ctx context.Context) (stats.MaintenanceReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.guard != nil {
		return s.guard.MaintainCtx(ctx, s.auto.Policy)
	}
	return s.mgr.RunMaintenanceCtx(ctx, s.auto.Policy)
}
