package core

import (
	"context"
	"sync"
	"testing"

	"autostats/internal/histogram"
	"autostats/internal/obs"
	"autostats/internal/optimizer"
	"autostats/internal/stats"
	"autostats/internal/storage"
)

// obsSession builds a session whose manager reports into a private registry,
// so counters reflect exactly the work done by the test.
func obsSession(t testing.TB, db *storage.Database) (*optimizer.Session, *obs.Registry) {
	t.Helper()
	reg := obs.New()
	mgr := stats.NewManager(db, histogram.MaxDiff, 0)
	mgr.SetObsRegistry(reg)
	return optimizer.NewSession(mgr), reg
}

// TestTuneCountersReconcile: after an offline tuning run the obs counters
// must agree with the returned reports and the manager's own accounting —
// the metrics are a second bookkeeping path over the same events, so any
// drift means one of the two is lying.
func TestTuneCountersReconcile(t *testing.T) {
	db := testDB(t, 2)
	sess, reg := obsSession(t, db)
	qs := tuningWorkload(t, db)
	cfg := DefaultConfig()

	rep, err := OfflineTuneCtx(context.Background(), sess, qs, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()

	if got := snap.Counters["mnsa.runs"]; got != int64(len(qs)) {
		t.Errorf("mnsa.runs = %d, want %d", got, len(qs))
	}
	if got := snap.Counters["mnsa.optimizer_calls"]; got != int64(rep.MNSA.OptimizerCalls) {
		t.Errorf("mnsa.optimizer_calls = %d, report says %d", got, rep.MNSA.OptimizerCalls)
	}
	if got := snap.Counters["shrink.runs"]; got != 1 {
		t.Errorf("shrink.runs = %d, want 1", got)
	}
	// Shrink charges one baseline optimization per query plus one per probe.
	wantProbes := int64(rep.Shrink.OptimizerCalls - len(qs))
	if got := snap.Counters["shrink.probes"]; got != wantProbes {
		t.Errorf("shrink.probes = %d, want %d", got, wantProbes)
	}
	if got := snap.Counters["shrink.removed"]; got != int64(len(rep.Shrink.Removed)) {
		t.Errorf("shrink.removed = %d, report says %d", got, len(rep.Shrink.Removed))
	}
	if got := snap.Counters["shrink.kept"]; got != int64(len(rep.Shrink.Kept)) {
		t.Errorf("shrink.kept = %d, report says %d", got, len(rep.Shrink.Kept))
	}

	// Manager accounting and its mirrored metrics must agree exactly.
	acc := sess.Manager().Snapshot()
	if got := snap.Counters["stats.builds"]; got != int64(acc.BuildCount) {
		t.Errorf("stats.builds = %d, manager says %d", got, acc.BuildCount)
	}
	if got := snap.FloatCounters["stats.build.cost_units"]; got != acc.TotalBuildCost {
		t.Errorf("stats.build.cost_units = %v, manager says %v", got, acc.TotalBuildCost)
	}
	// Every build in this run was charged by MNSA, so its consumption metric
	// must equal the manager's total build cost.
	if got := snap.FloatCounters["mnsa.units_consumed"]; got != acc.TotalBuildCost {
		t.Errorf("mnsa.units_consumed = %v, manager built %v", got, acc.TotalBuildCost)
	}
	if got := snap.Gauges["stats.count"]; got != int64(len(sess.Manager().All())) {
		t.Errorf("stats.count gauge = %d, manager holds %d", got, len(sess.Manager().All()))
	}

	// Every report-counted optimizer call went through Session.Optimize, as
	// either a fresh optimization or a plan-cache hit.
	total := int64(rep.MNSA.OptimizerCalls + rep.Shrink.OptimizerCalls)
	opts := snap.Counters["optimizer.optimizations"]
	hits := snap.Counters["optimizer.plancache.hits"]
	if opts+hits != total {
		t.Errorf("optimizations(%d) + cache hits(%d) = %d, reports counted %d calls", opts, hits, opts+hits, total)
	}
}

// countingTracer counts span starts and ends by name; safe for concurrent
// Emit as the Tracer contract requires.
type countingTracer struct {
	mu     sync.Mutex
	starts map[string]int
	ends   map[string]int
}

func newCountingTracer() *countingTracer {
	return &countingTracer{starts: map[string]int{}, ends: map[string]int{}}
}

func (c *countingTracer) Emit(ev obs.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ev.Kind == obs.SpanStart {
		c.starts[ev.Name]++
	} else {
		c.ends[ev.Name]++
	}
}

// TestWorkloadTuningWithTracing runs the workload driver with a tracer
// attached: mnsa.run opens and closes once per query and every span that
// starts also ends.
func TestWorkloadTuningWithTracing(t *testing.T) {
	db := testDB(t, 2)
	sess, reg := obsSession(t, db)
	tr := newCountingTracer()
	reg.AddTracer(tr)
	cfg := DefaultConfig()
	cfg.Drop = true
	qs := tuningWorkload(t, db)

	wr, err := RunMNSAWorkloadCtx(context.Background(), sess, qs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(wr.PerQuery) != len(qs) {
		t.Fatalf("PerQuery = %d, want %d", len(wr.PerQuery), len(qs))
	}

	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.starts["mnsa.run"] != len(qs) || tr.ends["mnsa.run"] != len(qs) {
		t.Errorf("mnsa.run spans = %d/%d, want %d each", tr.starts["mnsa.run"], tr.ends["mnsa.run"], len(qs))
	}
	for name, n := range tr.starts {
		if tr.ends[name] != n {
			t.Errorf("span %q: %d starts but %d ends", name, n, tr.ends[name])
		}
	}
}
