package oracle

import (
	"context"
	"errors"
	"sync"

	"autostats/internal/stats"
	"autostats/internal/storage"
)

// ErrInjected is the error every injected fault returns, so tests can
// assert the failure they observe is the one they injected.
var ErrInjected = errors.New("oracle: injected fault")

// FaultyProvider wraps a stats.Manager and misreports statistics state to
// the optimizer, simulating the reader-side races and staleness the plan
// cache's epoch discipline must survive:
//
//   - FreezeEpoch makes Epoch() return a pinned value while the underlying
//     manager moves on — a session reading through a stale snapshot;
//   - TearAfter triggers a callback after a fixed number of statistic
//     reads, letting a test mutate the manager in the middle of one
//     optimization — a torn snapshot, which the optimizer must detect via
//     its publish-time epoch re-check and refuse to cache.
//
// All state is mutex-guarded so the provider is safe under -race when
// optimizer goroutines share it.
type FaultyProvider struct {
	mgr *stats.Manager

	mu          sync.Mutex
	frozen      bool
	frozenEpoch uint64
	reads       int
	tearAt      int // fire tear() on the tearAt-th read; 0 = disabled
	tear        func()
}

// NewFaultyProvider wraps mgr with no faults armed; it behaves identically
// to the manager until FreezeEpoch or TearAfter is called.
func NewFaultyProvider(mgr *stats.Manager) *FaultyProvider {
	return &FaultyProvider{mgr: mgr}
}

var _ stats.Provider = (*FaultyProvider)(nil)

// FreezeEpoch pins the epoch the provider reports to the manager's current
// value. Statistic reads keep returning live data — exactly the hazardous
// combination: fresh snapshots under a stale identity.
func (p *FaultyProvider) FreezeEpoch() uint64 {
	e := p.mgr.Epoch()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.frozen, p.frozenEpoch = true, e
	return e
}

// TearAfter arms a one-shot callback fired in the middle of the n-th
// subsequent statistic read (1-based). The callback typically mutates the
// manager (refresh, create) so the optimization that triggered it computes
// from a torn view spanning two epochs.
func (p *FaultyProvider) TearAfter(n int, fn func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reads, p.tearAt, p.tear = 0, n, fn
}

// noteRead counts one statistic read and fires the armed tear callback
// when the trigger point is crossed. The callback runs without the
// provider lock held so it may call back into provider or manager.
func (p *FaultyProvider) noteRead() {
	p.mu.Lock()
	p.reads++
	var fire func()
	if p.tearAt > 0 && p.reads == p.tearAt {
		fire, p.tear, p.tearAt = p.tear, nil, 0
	}
	p.mu.Unlock()
	if fire != nil {
		fire()
	}
}

// Epoch implements stats.Provider, honestly or frozen.
func (p *FaultyProvider) Epoch() uint64 {
	p.mu.Lock()
	frozen, e := p.frozen, p.frozenEpoch
	p.mu.Unlock()
	if frozen {
		return e
	}
	return p.mgr.Epoch()
}

// Get implements stats.Provider.
func (p *FaultyProvider) Get(id stats.ID) *stats.Statistic {
	p.noteRead()
	return p.mgr.Get(id)
}

// StatsForColumn implements stats.Provider.
func (p *FaultyProvider) StatsForColumn(table, column string) []*stats.Statistic {
	p.noteRead()
	return p.mgr.StatsForColumn(table, column)
}

// StatsOnTable implements stats.Provider.
func (p *FaultyProvider) StatsOnTable(table string) []*stats.Statistic {
	p.noteRead()
	return p.mgr.StatsOnTable(table)
}

// Database implements stats.Provider.
func (p *FaultyProvider) Database() *storage.Database { return p.mgr.Database() }

// FailNextRefreshes installs a manager failpoint that fails the next n
// refresh operations with ErrInjected, then disarms itself. It returns a
// function reporting how many injections actually fired.
func FailNextRefreshes(mgr *stats.Manager, n int) (fired func() int) {
	var mu sync.Mutex
	count := 0
	mgr.SetFailpoint(func(_ context.Context, op string, _ stats.ID) error {
		if op != "refresh" {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		if count < n {
			count++
			return ErrInjected
		}
		return nil
	})
	return func() int {
		mu.Lock()
		defer mu.Unlock()
		return count
	}
}

// FlakyFailpoint installs a fail-N-then-succeed failpoint: the first n
// build/refresh operations fail with ErrInjected, every operation after that
// succeeds. It models a build path that recovers on its own. Returns a
// function reporting how many injections fired.
func FlakyFailpoint(mgr *stats.Manager, n int) (fired func() int) {
	var mu sync.Mutex
	count := 0
	mgr.SetFailpoint(func(_ context.Context, _ string, _ stats.ID) error {
		mu.Lock()
		defer mu.Unlock()
		if count < n {
			count++
			return ErrInjected
		}
		return nil
	})
	return func() int {
		mu.Lock()
		defer mu.Unlock()
		return count
	}
}
