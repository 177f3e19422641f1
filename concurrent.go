package autostats

import (
	"sync"
	"sync/atomic"

	"autostats/internal/optimizer"
)

// sessionPool hands out per-call optimizer session clones so that Exec and
// Explain can run from any number of goroutines at once. Clones share the
// concurrency-safe statistics manager, plan cache and metric handles; each
// clone's mutable buffers (ignore set, overrides, template memo) belong to
// exactly one borrower at a time.
//
// The clone source ("proto") is a dedicated session that is never optimized
// on, so borrowing can never race with the facade's own shared session being
// mutated by a tuning run. Configuration methods that change what clones
// must capture (the plan cache) rebuild the proto AND discard the pool via
// reset; configuration is documented as not concurrent with serving,
// matching the usual Go server pattern of configure-then-serve.
type sessionPool struct {
	proto atomic.Pointer[optimizer.Session]
	pool  atomic.Pointer[sync.Pool]
}

func newSessionPool(proto *optimizer.Session) *sessionPool {
	sp := &sessionPool{}
	sp.reset(proto)
	return sp
}

// reset installs a new clone source and empties the pool. Callers must hold
// the system mutex and must not race with in-flight borrowers.
func (sp *sessionPool) reset(proto *optimizer.Session) {
	sp.proto.Store(proto)
	sp.pool.Store(&sync.Pool{})
}

func (sp *sessionPool) get() *optimizer.Session {
	if v := sp.pool.Load().Get(); v != nil {
		return v.(*optimizer.Session)
	}
	return sp.proto.Load().Clone()
}

func (sp *sessionPool) put(s *optimizer.Session) {
	sp.pool.Load().Put(s)
}

// refreshSessions rebuilds the pool's clone source from the facade session's
// current configuration. Called by configuration methods after they mutate
// session-captured state (the plan cache).
func (s *System) refreshSessions() {
	s.sessions.reset(s.sess.Clone())
}
