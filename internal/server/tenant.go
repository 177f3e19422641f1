package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"autostats"
	"autostats/internal/obs"
)

// errTenantLimit reports a request for a new tenant when the table is full.
var errTenantLimit = errors.New("server: tenant limit reached")

// tenantEntry is one tenant's lazily built system. The entry is inserted
// under the table lock, but the (possibly slow — data generation) factory
// runs inside once.Do OUTSIDE the lock, so concurrent first requests for one
// tenant build exactly one system while other tenants proceed unimpeded.
type tenantEntry struct {
	name string
	once sync.Once
	// ready is closed after sys/err are set; readers outside the once (the
	// forEach aggregations) gate on it instead of racing the factory.
	ready   chan struct{}
	sys     *autostats.System
	err     error
	refs    atomic.Int64 // requests currently executing against this tenant
	lastUse atomic.Int64 // unix nanos of the most recent acquire/release
}

func (e *tenantEntry) touch() { e.lastUse.Store(time.Now().UnixNano()) }

// tenantTable maps tenant names to their systems with lazy creation, a hard
// cap, and idle eviction.
type tenantTable struct {
	mu      sync.Mutex
	entries map[string]*tenantEntry
	factory func(string) (*autostats.System, error)
	limit   int

	created *obs.Counter
	evicted *obs.Counter
	failed  *obs.Counter
	panics  *obs.Counter
	live    *obs.Gauge
}

func newTenantTable(factory func(string) (*autostats.System, error), limit int, reg *obs.Registry) *tenantTable {
	return &tenantTable{
		entries: make(map[string]*tenantEntry),
		factory: factory,
		limit:   limit,
		created: reg.Counter("server.tenants.created"),
		evicted: reg.Counter("server.tenants.evicted"),
		failed:  reg.Counter("server.tenants.create_failures"),
		panics:  reg.Counter("server.tenant.factory_panics"),
		live:    reg.Gauge("server.tenants.live"),
	}
}

// acquire returns the tenant's system, creating it on first use, and pins the
// tenant against eviction until release is called.
func (t *tenantTable) acquire(name string) (sys *autostats.System, release func(), err error) {
	t.mu.Lock()
	e := t.entries[name]
	if e == nil {
		if len(t.entries) >= t.limit {
			t.mu.Unlock()
			return nil, nil, fmt.Errorf("%w (%d live tenants)", errTenantLimit, t.limit)
		}
		e = &tenantEntry{name: name, ready: make(chan struct{})}
		t.entries[name] = e
	}
	e.refs.Add(1)
	e.touch()
	t.mu.Unlock()

	e.once.Do(func() {
		defer close(e.ready)
		// A panicking factory must not leave the entry half-initialized
		// behind a spent sync.Once: recover it into an ordinary error, which
		// the failed-entry retry below then drops for a fresh attempt.
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.panics.Inc()
					e.err = fmt.Errorf("server: tenant %q factory panicked: %v", name, r)
				}
			}()
			e.sys, e.err = t.factory(name)
		}()
		if e.err == nil {
			t.created.Inc()
			t.live.Add(1)
		} else {
			t.failed.Inc()
		}
	})
	if e.err != nil {
		err := e.err
		e.refs.Add(-1)
		// Drop the failed entry so a later request retries the factory
		// instead of caching the failure forever.
		t.mu.Lock()
		if t.entries[name] == e {
			delete(t.entries, name)
		}
		t.mu.Unlock()
		return nil, nil, err
	}
	return e.sys, func() {
		e.touch()
		e.refs.Add(-1)
	}, nil
}

// forEach visits every successfully created tenant system.
func (t *tenantTable) forEach(fn func(name string, sys *autostats.System)) {
	t.mu.Lock()
	entries := make([]*tenantEntry, 0, len(t.entries))
	for _, e := range t.entries {
		entries = append(entries, e)
	}
	t.mu.Unlock()
	for _, e := range entries {
		select {
		case <-e.ready:
			if e.err == nil {
				fn(e.name, e.sys)
			}
		default: // factory still running; skip
		}
	}
}

// janitor evicts tenants idle longer than ttl, checking every ttl/4, until
// done is closed. An evicted tenant's system is simply dropped (its state is
// synthetic and rebuildable); the next request re-creates it.
func (t *tenantTable) janitor(done <-chan struct{}, ttl time.Duration) {
	interval := ttl / 4
	if interval < time.Second {
		interval = time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
			t.evictIdle(ttl)
		}
	}
}

func (t *tenantTable) evictIdle(ttl time.Duration) {
	cutoff := time.Now().Add(-ttl).UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	for name, e := range t.entries {
		if e.refs.Load() == 0 && e.lastUse.Load() < cutoff {
			delete(t.entries, name)
			if e.sys != nil {
				t.evicted.Inc()
				t.live.Add(-1)
			}
		}
	}
}
