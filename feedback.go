package autostats

import (
	"autostats/internal/feedback"
	"autostats/internal/stats"
)

// FeedbackOptions configures the execution-feedback loop enabled by
// System.EnableFeedback. The zero value selects sensible defaults.
type FeedbackOptions struct {
	// LedgerCapacity caps the number of distinct (table, columns, predicate
	// signature) entries the feedback ledger keeps (LRU-evicted beyond it).
	// 0 means feedback.DefaultCapacity.
	LedgerCapacity int
	// MinObservations is how many observations an entry needs before its
	// correction is applied, its q-error feeds maintenance, or a drop is
	// confirmed. 0 means 2.
	MinObservations int64
	// MaxCorrection clamps learned correction factors into
	// [1/MaxCorrection, MaxCorrection]. 0 means feedback.DefaultMaxCorrection.
	MaxCorrection float64
	// QErrorThreshold is the maintenance trigger: a maintained statistic
	// whose observed q-error exceeds it is refreshed even when the row-mod
	// counter is quiet. 0 means stats.DefaultQErrorThreshold.
	QErrorThreshold float64
	// DisableCorrections captures actual cardinalities and drives feedback
	// maintenance without feeding learned corrections back into the
	// optimizer's selectivity estimates.
	DisableCorrections bool
}

// EnableFeedback turns on the execution-feedback loop: the executor captures
// per-plan-node actual cardinalities into a ledger of est-vs-actual q-error
// summaries; the optimizer applies learned selectivity corrections for
// matching predicate signatures (unless disabled); and maintenance
// (RunMaintenance / the on-the-fly policy) refreshes statistics whose
// observed q-error exceeds the threshold and confirms drops of statistics
// that stayed accurate. Calling it again replaces the ledger and forgets all
// accumulated evidence.
//
// Like every configuration method, call it before the System is shared
// across goroutines; the ledger itself is safe for concurrent use.
func (s *System) EnableFeedback(opts FeedbackOptions) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.refreshSessions()
	minObs := opts.MinObservations
	if minObs <= 0 {
		minObs = 2
	}
	led := feedback.NewLedger(feedback.ManagerVersions(s.mgr), feedback.Config{
		Capacity:        opts.LedgerCapacity,
		MinObservations: minObs,
		MaxCorrection:   opts.MaxCorrection,
		Obs:             s.Obs(),
	})
	s.fb = led
	s.ex.SetFeedback(led)
	if opts.DisableCorrections {
		s.sess.SetCorrections(nil)
	} else {
		s.sess.SetCorrections(led)
	}
	s.mgr.SetFeedbackProvider(led)

	p := stats.DefaultFeedbackPolicy()
	if opts.QErrorThreshold > 0 {
		p.QErrorThreshold = opts.QErrorThreshold
	}
	p.FeedbackMinObservations = minObs
	s.auto.Policy = p
}

// DisableFeedback detaches the feedback loop entirely: capture, corrections
// and feedback-driven maintenance all stop, and the maintenance policy
// reverts to the plain counter-driven default.
func (s *System) DisableFeedback() {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.refreshSessions()
	s.fb = nil
	s.ex.SetFeedback(nil)
	s.sess.SetCorrections(nil)
	s.mgr.SetFeedbackProvider(nil)
	s.auto.Policy = stats.DefaultMaintenancePolicy()
}

// FeedbackEnabled reports whether the feedback loop is active.
func (s *System) FeedbackEnabled() bool { return s.fb != nil }

// FeedbackStats returns the ledger's aggregate counters (zero value when
// feedback is disabled).
func (s *System) FeedbackStats() feedback.LedgerStats {
	if s.fb == nil {
		return feedback.LedgerStats{}
	}
	return s.fb.Stats()
}

// FeedbackEntries snapshots the ledger's per-predicate evidence, worst
// current q-errors first (nil when feedback is disabled).
func (s *System) FeedbackEntries() []feedback.EntrySnapshot {
	if s.fb == nil {
		return nil
	}
	return s.fb.Entries()
}
