package stats

import (
	"context"

	"autostats/internal/storage"
)

// Provider is the read-only view of the statistics layer the optimizer
// consumes. Manager is the production implementation; tests substitute
// wrappers that misreport epochs or tear snapshots to verify the plan
// cache's staleness discipline holds under faults.
//
// The contract mirrors the Manager's snapshot semantics: returned
// *Statistic values are immutable snapshots, and Epoch must change
// whenever the visible statistics set changes. A Provider that violates
// the epoch contract (on purpose, in tests) must not be able to trick a
// correctly implemented optimizer into publishing a stale plan under a
// fresh key.
type Provider interface {
	// Epoch identifies the visible statistics set; see Manager.Epoch.
	Epoch() uint64
	// Get returns the statistic with the given ID, or nil.
	Get(id ID) *Statistic
	// StatsForColumn returns the statistics whose leading column is
	// table.column, single-column statistics first.
	StatsForColumn(table, column string) []*Statistic
	// StatsOnTable returns all statistics on the table.
	StatsOnTable(table string) []*Statistic
	// Database returns the underlying database.
	Database() *storage.Database
}

var _ Provider = (*Manager)(nil)

// Failpoint is a test hook consulted before state-mutating statistics
// operations. op is "refresh" (rebuilding an existing statistic) or
// "create" (physically building a new one); id names the target. Builds
// additionally consult it with "block" after each scan block, while the
// table's snapshot guard and the manager's writer mutex are held — the hook
// must not call back into the table or a manager mutator. A non-nil return
// aborts the operation with that error, and the manager must leave all
// published state — snapshots, epoch, accounting — exactly as it was. ctx is
// the operation's context: latency-injecting failpoints must select on
// ctx.Done() while sleeping so deadlines and cancellation cut the injected
// delay short.
type Failpoint func(ctx context.Context, op string, id ID) error

// SetFailpoint installs (or, with nil, removes) the manager's failpoint.
// Production code never installs one; the fault-injection oracle uses it
// to prove refresh failures cannot poison optimizer state.
func (m *Manager) SetFailpoint(fp Failpoint) {
	m.cfgMu.Lock()
	defer m.cfgMu.Unlock()
	m.failpoint = fp
}

// failpointFn returns the installed failpoint, or nil.
func (m *Manager) failpointFn() Failpoint {
	m.cfgMu.RLock()
	defer m.cfgMu.RUnlock()
	return m.failpoint
}
