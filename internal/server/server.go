// Package server is the stats-as-a-service network layer: a long-running
// multi-tenant TCP server exposing the autostats facade over the
// length-prefixed JSON protocol of internal/protocol.
//
// Architecture, connection by connection:
//
//   - the accept loop hands each connection to a reader goroutine and a
//     writer goroutine. The reader decodes frames and ADMITS requests; the
//     writer serializes responses (pipelined — responses carry request IDs
//     and may complete out of order);
//   - admitted requests go to a bounded worker pool through a fixed-depth
//     queue. Admission control is a non-blocking enqueue: when the queue is
//     full the request is rejected immediately with CodeOverloaded
//     (protocol.ErrOverloaded on the client side) instead of queuing
//     unboundedly — load sheds at the door, in O(1), under any burst;
//   - each tenant gets its own lazily created autostats.System (its own
//     database, statistics manager, optimizer and plan cache). Tenants idle
//     beyond the TTL are evicted; the next request re-creates them;
//   - graceful drain (Shutdown, wired to SIGTERM in cmd/autostatsd): stop
//     accepting, wake blocked readers, reject NEW requests with
//     CodeDraining, finish every admitted request through the PR 5 context
//     plumbing, flush each connection's writer, then close. The returned
//     DrainReport proves zero admitted requests were dropped.
package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"autostats"
	"autostats/internal/obs"
	"autostats/internal/optimizer"
	"autostats/internal/protocol"
)

// Config configures a Server. The zero value of every field selects a
// sensible default except NewTenant, which is required.
type Config struct {
	// Addr is the TCP listen address (default "127.0.0.1:7744"; use ":0"
	// for an ephemeral test port, then read Server.Addr).
	Addr string
	// Workers bounds concurrently executing requests (default 2×GOMAXPROCS,
	// minimum 4).
	Workers int
	// QueueDepth bounds requests admitted but not yet executing (default
	// 16×Workers). A full queue fast-fails new requests with CodeOverloaded.
	QueueDepth int
	// MaxFrame caps request and response frame payloads (default
	// protocol.DefaultMaxFrame).
	MaxFrame int
	// MaxTenants bounds the number of live tenant systems (default 64);
	// requests for new tenants beyond it are rejected with CodeTenantLimit.
	MaxTenants int
	// TenantIdleTTL evicts tenant systems idle this long (default 10m;
	// negative disables eviction).
	TenantIdleTTL time.Duration
	// ReadTimeout caps the wait for the next request frame on a connection.
	// It doubles as the idle timeout and the half-open/slow-loris defense: a
	// client that stalls mid-frame or vanishes without FIN is evicted when
	// the deadline fires (default 2m; negative disables).
	ReadTimeout time.Duration
	// WriteTimeout caps each response write to a client socket; a client
	// that stops reading until the TCP window and the write queue are both
	// full is evicted instead of pinning the writer (default 30s; negative
	// disables).
	WriteTimeout time.Duration
	// RequestTimeout bounds one request's server-side execution, propagated
	// as a context deadline into the tenant operation; expired requests
	// answer CodeTimeout (default 0 = unbounded).
	RequestTimeout time.Duration
	// MaxInflightPerConn caps requests admitted but not yet answered on one
	// connection; excess fast-fails with CodeOverloaded so a single
	// pipelining client cannot monopolize the worker queue (default 256;
	// negative disables).
	MaxInflightPerConn int
	// TenantRPS, when > 0, enforces a per-tenant token-bucket quota of this
	// many requests per second; excess fast-fails with CodeRateLimited.
	TenantRPS float64
	// TenantBurst is the token-bucket depth for TenantRPS (default one
	// second of quota).
	TenantBurst int
	// WriteQueue bounds responses buffered per connection awaiting the
	// writer goroutine (default 256). A full queue evicts the connection —
	// a slow consumer — instead of blocking workers on it.
	WriteQueue int
	// NewTenant builds the per-tenant system on first use. Required.
	NewTenant func(name string) (*autostats.System, error)
	// Obs receives the server's own metrics (default a fresh registry).
	Obs *obs.Registry
	// Logf, when non-nil, receives one line per lifecycle event.
	Logf func(format string, args ...any)
	// Name is announced in hello responses (default "autostatsd").
	Name string
}

func (c *Config) fill() error {
	if c.NewTenant == nil {
		return errors.New("server: Config.NewTenant is required")
	}
	if c.Addr == "" {
		c.Addr = "127.0.0.1:7744"
	}
	if c.Workers <= 0 {
		c.Workers = defaultWorkers()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16 * c.Workers
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = protocol.DefaultMaxFrame
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 64
	}
	if c.TenantIdleTTL == 0 {
		c.TenantIdleTTL = 10 * time.Minute
	}
	if c.ReadTimeout == 0 {
		c.ReadTimeout = 2 * time.Minute
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.MaxInflightPerConn == 0 {
		c.MaxInflightPerConn = 256
	}
	if c.WriteQueue <= 0 {
		c.WriteQueue = 256
	}
	if c.Obs == nil {
		c.Obs = obs.New()
	}
	if c.Name == "" {
		c.Name = "autostatsd"
	}
	return nil
}

// task is one admitted request bound for the worker pool.
type task struct {
	cn     *conn
	req    *protocol.Request
	tenant string
}

// DrainReport summarizes a completed Shutdown. The drain guarantee is
// Dropped == 0: every request admitted past admission control got its
// response enqueued (and, connection permitting, written) before the server
// closed.
type DrainReport struct {
	Admitted         int64
	Completed        int64
	Dropped          int64
	RejectedOverload int64
	RejectedDraining int64
	Forced           bool
}

// Server is one listening stats-as-a-service instance.
type Server struct {
	cfg Config
	reg *obs.Registry

	ln      net.Listener
	queue   chan task
	tenants *tenantTable
	limiter *tenantLimiter

	stopCtx    context.Context // canceled when drain is forced; aborts long ops
	stopCancel context.CancelFunc
	started    atomic.Bool
	draining   atomic.Bool
	closed     chan struct{}
	stopOnce   sync.Once

	connMu sync.Mutex
	conns  map[*conn]struct{}

	acceptWG sync.WaitGroup
	connWG   sync.WaitGroup
	workerWG sync.WaitGroup
	inflight sync.WaitGroup

	met serverMetrics
}

type serverMetrics struct {
	connsAccepted *obs.Counter
	connsActive   *obs.Gauge
	admitted      *obs.Counter
	completed     *obs.Counter
	rejOverload   *obs.Counter
	rejDraining   *obs.Counter
	badRequests   *obs.Counter
	opErrors      *obs.Counter
	queueDepth    *obs.Gauge
	opLatency     map[string]*obs.Timing

	// Network-robustness counters (PR 10): evictions of misbehaving
	// connections, per-tenant quota rejections, request timeouts and
	// recovered panics.
	connIdleEvicted *obs.Counter // reader deadline fired: idle or half-open
	connSlowEvicted *obs.Counter // write queue full or write deadline fired
	connInflightRej *obs.Counter // per-connection in-flight cap rejections
	connPanics      *obs.Counter // recovered connection-goroutine panics
	workerPanics    *obs.Counter // recovered worker/op panics
	rejRateLimited  *obs.Counter // per-tenant token-bucket rejections
	reqTimeouts     *obs.Counter // requests answering CodeTimeout
}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	ops := []string{protocol.OpExec, protocol.OpExplain, protocol.OpTune,
		protocol.OpStats, protocol.OpMaintain, protocol.OpMetrics}
	lat := make(map[string]*obs.Timing, len(ops))
	for _, op := range ops {
		lat[op] = reg.Timing("server.op." + op + ".latency")
	}
	return serverMetrics{
		connsAccepted: reg.Counter("server.conns.accepted"),
		connsActive:   reg.Gauge("server.conns.active"),
		admitted:      reg.Counter("server.requests.admitted"),
		completed:     reg.Counter("server.requests.completed"),
		rejOverload:   reg.Counter("server.requests.rejected_overload"),
		rejDraining:   reg.Counter("server.requests.rejected_draining"),
		badRequests:   reg.Counter("server.requests.bad"),
		opErrors:      reg.Counter("server.requests.op_errors"),
		queueDepth:    reg.Gauge("server.queue.depth"),
		opLatency:     lat,

		connIdleEvicted: reg.Counter("server.conn.idle_evicted"),
		connSlowEvicted: reg.Counter("server.conn.slow_evicted"),
		connInflightRej: reg.Counter("server.conn.inflight_rejects"),
		connPanics:      reg.Counter("server.conn.panics"),
		workerPanics:    reg.Counter("server.worker.panics"),
		rejRateLimited:  reg.Counter("server.tenant.rate_limited"),
		reqTimeouts:     reg.Counter("server.requests.timeouts"),
	}
}

// New builds a server from cfg without listening yet.
func New(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	stopCtx, stopCancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		reg:        cfg.Obs,
		queue:      make(chan task, cfg.QueueDepth),
		closed:     make(chan struct{}),
		stopCtx:    stopCtx,
		stopCancel: stopCancel,
		conns:      make(map[*conn]struct{}),
		met:        newServerMetrics(cfg.Obs),
	}
	s.tenants = newTenantTable(cfg.NewTenant, cfg.MaxTenants, cfg.Obs)
	s.limiter = newTenantLimiter(cfg.TenantRPS, cfg.TenantBurst)
	return s, nil
}

// Obs returns the server's metric registry (tenant systems report to the
// process-default registry; the server's own counters live here).
func (s *Server) Obs() *obs.Registry { return s.reg }

// Start listens and begins serving. It returns once the listener is bound;
// serving continues on background goroutines until Shutdown.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.logf("listening on %s (workers=%d queue=%d max_tenants=%d)",
		ln.Addr(), s.cfg.Workers, s.cfg.QueueDepth, s.cfg.MaxTenants)
	for i := 0; i < s.cfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	s.acceptWG.Add(1)
	go s.acceptLoop()
	if s.cfg.TenantIdleTTL > 0 {
		go s.tenants.janitor(s.closed, s.cfg.TenantIdleTTL)
	}
	s.started.Store(true)
	return nil
}

// Ready reports the server is listening and not draining — the /readyz gate.
func (s *Server) Ready() bool { return s.started.Load() && !s.draining.Load() }

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Addr returns the bound listen address (nil before Start).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// TenantCount returns the number of live tenant systems.
func (s *Server) TenantCount() int { return s.tenants.count() }

// PlanCacheStats aggregates the plan-cache counters of every live tenant —
// the multi-tenant hit rate the swarm benchmark reports.
func (s *Server) PlanCacheStats() optimizer.PlanCacheStats {
	var agg optimizer.PlanCacheStats
	s.tenants.forEach(func(name string, sys *autostats.System) {
		st := sys.PlanCacheStats()
		agg.Hits += st.Hits
		agg.Misses += st.Misses
		agg.Evictions += st.Evictions
		agg.Size += st.Size
		agg.Capacity += st.Capacity
	})
	return agg
}

// TenantPlanCacheStats returns each live tenant's plan-cache counters keyed
// by tenant name — the per-tenant view the chaos sweep uses to prove tenant
// isolation (one tenant's traffic never touches another tenant's cache).
func (s *Server) TenantPlanCacheStats() map[string]optimizer.PlanCacheStats {
	out := make(map[string]optimizer.PlanCacheStats)
	s.tenants.forEach(func(name string, sys *autostats.System) {
		out[name] = sys.PlanCacheStats()
	})
	return out
}

// Run serves until ctx is done, then drains gracefully with the given
// timeout budget (0 means 30s) — the SIGTERM path of cmd/autostatsd.
func (s *Server) Run(ctx context.Context, drainTimeout time.Duration) (DrainReport, error) {
	if err := s.Start(); err != nil {
		return DrainReport{}, err
	}
	<-ctx.Done()
	if drainTimeout <= 0 {
		drainTimeout = 30 * time.Second
	}
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	return s.Shutdown(dctx), nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.acceptWG.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			if s.draining.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			s.logf("accept: %v", err)
			continue
		}
		s.met.connsAccepted.Inc()
		s.met.connsActive.Add(1)
		cn := newConn(s, nc)
		s.connMu.Lock()
		s.conns[cn] = struct{}{}
		s.connMu.Unlock()
		s.connWG.Add(2)
		go cn.writeLoop()
		go cn.readLoop()
	}
}

func (s *Server) removeConn(cn *conn) {
	s.connMu.Lock()
	delete(s.conns, cn)
	s.connMu.Unlock()
	s.met.connsActive.Add(-1)
}

// worker executes admitted requests until the queue is closed.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for t := range s.queue {
		s.met.queueDepth.Add(-1)
		resp := s.safeExecute(t)
		t.cn.send(resp)
		t.cn.inflight.Add(-1)
		s.met.completed.Inc()
		t.cn.pending.Done()
		s.inflight.Done()
	}
}

// safeExecute runs execute with panic isolation: a panicking operation (an
// optimizer bug, a misbehaving tenant factory) answers CodeInternal and the
// worker survives to serve the next request — one poisoned request must
// never take a worker slot down with it.
func (s *Server) safeExecute(t task) (resp *protocol.Response) {
	defer func() {
		if r := recover(); r != nil {
			s.met.workerPanics.Inc()
			s.met.opErrors.Inc()
			s.logf("worker panic executing %q: %v", t.req.Op, r)
			resp = protocol.ErrResponse(t.req.ID, protocol.CodeInternal,
				fmt.Sprintf("internal panic executing %s", t.req.Op))
		}
	}()
	return s.execute(t)
}

// opErrResponse classifies an operation error into its protocol code: a
// context deadline becomes the typed CodeTimeout, a drain cancellation
// becomes CodeDraining, anything else is the statement's own CodeSQL error.
func (s *Server) opErrResponse(id uint64, err error) *protocol.Response {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.met.reqTimeouts.Inc()
		return protocol.ErrResponse(id, protocol.CodeTimeout,
			fmt.Sprintf("request exceeded the server's %v deadline", s.cfg.RequestTimeout))
	case errors.Is(err, context.Canceled):
		return protocol.ErrResponse(id, protocol.CodeDraining,
			"request canceled by server shutdown")
	default:
		s.met.opErrors.Inc()
		return protocol.ErrResponse(id, protocol.CodeSQL, err.Error())
	}
}

// execute runs one admitted request against its tenant system.
func (s *Server) execute(t task) *protocol.Response {
	req := t.req
	start := time.Now()
	defer func() {
		if tm := s.met.opLatency[req.Op]; tm != nil {
			tm.Observe(time.Since(start))
		}
	}()

	// The request deadline starts when a worker picks the task up: queue
	// wait is already bounded by admission control, and restarting the clock
	// here keeps the budget meaningful for the operation itself.
	ctx := s.stopCtx
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}

	sys, release, err := s.tenants.acquire(t.tenant)
	if err != nil {
		if errors.Is(err, errTenantLimit) {
			return protocol.ErrResponse(req.ID, protocol.CodeTenantLimit, err.Error())
		}
		s.met.opErrors.Inc()
		return protocol.ErrResponse(req.ID, protocol.CodeInternal, err.Error())
	}
	defer release()
	// A slow tenant factory may have consumed the whole budget before the
	// operation even starts; fail typed rather than starting doomed work.
	if err := ctx.Err(); err != nil {
		return s.opErrResponse(req.ID, err)
	}

	switch req.Op {
	case protocol.OpExec:
		r, err := sys.ExecCtx(ctx, req.SQL)
		if err != nil {
			return s.opErrResponse(req.ID, err)
		}
		return &protocol.Response{ID: req.ID, Exec: &protocol.ExecResult{
			Columns:       r.Columns,
			Rows:          r.Rows,
			ExecCost:      r.ExecCost,
			EstimatedCost: r.EstimatedCost,
			Plan:          r.Plan,
			Affected:      r.Affected,
			Degraded:      r.Degraded,
		}}
	case protocol.OpExplain:
		plan, err := sys.Explain(ctx, req.SQL)
		if err != nil {
			return s.opErrResponse(req.ID, err)
		}
		return &protocol.Response{ID: req.ID, Plan: plan}
	case protocol.OpTune:
		sqls := req.SQLs
		if len(sqls) == 0 {
			sqls = []string{req.SQL}
		}
		opts := autostats.TuneOptions{}
		if p := req.Tune; p != nil {
			opts.ThresholdPct = p.ThresholdPct
			opts.Epsilon = p.Epsilon
			opts.SingleColumnOnly = p.SingleColumnOnly
			opts.Drop = p.Drop
			opts.Shrink = p.Shrink
		}
		rep, err := sys.TuneWorkloadCtx(ctx, sqls, opts)
		if err != nil {
			return s.opErrResponse(req.ID, err)
		}
		return &protocol.Response{ID: req.ID, Tune: &protocol.TuneResult{
			Created:           rep.Created,
			DropListed:        rep.DropListed,
			Essential:         rep.Essential,
			OptimizerCalls:    rep.OptimizerCalls,
			CreationCostUnits: rep.CreationCostUnits,
			Degraded:          rep.Degraded,
			BuildFailures:     rep.BuildFailures,
		}}
	case protocol.OpStats:
		infos := sys.Statistics()
		rows := make([]protocol.StatRow, len(infos))
		for i, st := range infos {
			rows[i] = protocol.StatRow{
				ID:         st.ID,
				Table:      st.Table,
				Columns:    st.Columns,
				Rows:       st.Rows,
				Distinct:   st.Distinct,
				Buckets:    st.Buckets,
				InDropList: st.InDropList,
				Updates:    st.Updates,
			}
		}
		return &protocol.Response{ID: req.ID, Stats: rows}
	case protocol.OpMaintain:
		rep, err := sys.RunMaintenance(ctx)
		if err != nil {
			return s.opErrResponse(req.ID, err)
		}
		return &protocol.Response{ID: req.ID, Maintain: &protocol.MaintResult{
			TablesRefreshed: rep.TablesRefreshed,
			StatsDropped:    rep.StatsDropped,
		}}
	default:
		return protocol.ErrResponse(req.ID, protocol.CodeUnknownOp,
			fmt.Sprintf("unknown op %q", req.Op))
	}
}

// handleRequest runs in the connection's reader goroutine: the cheap inline
// ops answer directly, everything else passes admission control into the
// worker pool.
func (s *Server) handleRequest(cn *conn, req *protocol.Request) {
	switch req.Op {
	case protocol.OpHello:
		if req.Version != protocol.Version {
			s.met.badRequests.Inc()
			cn.send(protocol.ErrResponse(req.ID, protocol.CodeVersion,
				fmt.Sprintf("client speaks protocol %d, server speaks %d", req.Version, protocol.Version)))
			return
		}
		if req.Tenant != "" {
			if err := validTenant(req.Tenant); err != nil {
				s.met.badRequests.Inc()
				cn.send(protocol.ErrResponse(req.ID, protocol.CodeBadRequest, err.Error()))
				return
			}
			cn.tenant = req.Tenant
		}
		cn.send(&protocol.Response{ID: req.ID, Hello: &protocol.HelloResult{
			Version:  protocol.Version,
			Server:   s.cfg.Name,
			MaxFrame: s.cfg.MaxFrame,
			Tenant:   cn.tenant,
		}})
		return
	case protocol.OpMetrics:
		var sb strings.Builder
		if err := s.reg.WriteText(&sb); err != nil {
			cn.send(protocol.ErrResponse(req.ID, protocol.CodeInternal, err.Error()))
			return
		}
		cn.send(&protocol.Response{ID: req.ID, Metrics: sb.String()})
		return
	}

	tenant := req.Tenant
	if tenant == "" {
		tenant = cn.tenant
	}
	if err := validTenant(tenant); err != nil {
		s.met.badRequests.Inc()
		cn.send(protocol.ErrResponse(req.ID, protocol.CodeBadRequest, err.Error()))
		return
	}
	switch req.Op {
	case protocol.OpExec, protocol.OpExplain:
		if strings.TrimSpace(req.SQL) == "" {
			s.met.badRequests.Inc()
			cn.send(protocol.ErrResponse(req.ID, protocol.CodeBadRequest, "empty sql"))
			return
		}
	case protocol.OpTune:
		if strings.TrimSpace(req.SQL) == "" && len(req.SQLs) == 0 {
			s.met.badRequests.Inc()
			cn.send(protocol.ErrResponse(req.ID, protocol.CodeBadRequest, "empty tune workload"))
			return
		}
	case protocol.OpStats, protocol.OpMaintain:
	default:
		s.met.badRequests.Inc()
		cn.send(protocol.ErrResponse(req.ID, protocol.CodeUnknownOp,
			fmt.Sprintf("unknown op %q", req.Op)))
		return
	}

	if s.draining.Load() {
		s.met.rejDraining.Inc()
		cn.send(protocol.ErrResponse(req.ID, protocol.CodeDraining, "server draining"))
		return
	}

	// Per-tenant quota, checked before the shared queue so one hot tenant
	// sheds its own load instead of everyone's.
	if s.limiter != nil && !s.limiter.allow(tenant, time.Now()) {
		s.met.rejRateLimited.Inc()
		cn.send(protocol.ErrResponse(req.ID, protocol.CodeRateLimited,
			fmt.Sprintf("tenant %q over its %g req/s quota; retry with backoff", tenant, s.cfg.TenantRPS)))
		return
	}

	// Per-connection in-flight cap: a single client pipelining thousands of
	// requests must not be able to fill the worker queue by itself.
	if max := s.cfg.MaxInflightPerConn; max > 0 && cn.inflight.Load() >= int64(max) {
		s.met.connInflightRej.Inc()
		cn.send(protocol.ErrResponse(req.ID, protocol.CodeOverloaded,
			fmt.Sprintf("connection has %d requests in flight (cap %d); read responses before pipelining more", max, max)))
		return
	}

	// Admission control: the Add happens BEFORE the enqueue so a worker can
	// never complete the task before it is accounted in-flight; a full queue
	// rolls the accounting back and fast-fails.
	cn.pending.Add(1)
	cn.inflight.Add(1)
	s.inflight.Add(1)
	select {
	case s.queue <- task{cn: cn, req: req, tenant: tenant}:
		s.met.queueDepth.Add(1)
		s.met.admitted.Inc()
	default:
		cn.pending.Done()
		cn.inflight.Add(-1)
		s.inflight.Done()
		s.met.rejOverload.Inc()
		cn.send(protocol.ErrResponse(req.ID, protocol.CodeOverloaded,
			"worker queue full; retry with backoff"))
	}
}

// validTenant bounds tenant names: nonempty, short, printable ASCII without
// separators, so tenant names are safe in logs and metric labels.
func validTenant(name string) error {
	if name == "" {
		return errors.New("missing tenant (set it in hello or per request)")
	}
	if len(name) > 128 {
		return fmt.Errorf("tenant name longer than 128 bytes")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c <= ' ' || c > '~' || c == ',' {
			return fmt.Errorf("tenant name contains byte %q", c)
		}
	}
	return nil
}

// Shutdown drains the server: stop accepting, reject new requests, finish
// every admitted request, flush and close connections. If ctx expires first
// the drain is forced: the long-op context is canceled and connections are
// killed (Forced is set in the report; Dropped then counts the requests
// whose work was cut short).
func (s *Server) Shutdown(ctx context.Context) DrainReport {
	rep := DrainReport{}
	s.stopOnce.Do(func() {
		s.draining.Store(true)
		if s.ln != nil {
			s.ln.Close()
		}
		s.acceptWG.Wait()

		// Wake readers blocked in Read so they observe the drain flag.
		s.connMu.Lock()
		for cn := range s.conns {
			cn.nc.SetReadDeadline(time.Now())
		}
		s.connMu.Unlock()

		// Wait for every admitted request to complete (response enqueued).
		done := make(chan struct{})
		go func() { s.inflight.Wait(); close(done) }()
		select {
		case <-done:
		case <-ctx.Done():
			rep.Forced = true
			s.stopCancel() // abort long-running tunes/maintenance
			s.connMu.Lock()
			for cn := range s.conns {
				cn.kill() // unblock workers stuck sending to dead clients
			}
			s.connMu.Unlock()
			<-done
		}

		close(s.queue)
		s.workerWG.Wait()

		// Readers exit on the deadline, wait out their pending responses and
		// close their writers; give them the remaining budget, then force.
		connsDone := make(chan struct{})
		go func() { s.connWG.Wait(); close(connsDone) }()
		select {
		case <-connsDone:
		case <-ctx.Done():
			rep.Forced = true
			s.connMu.Lock()
			for cn := range s.conns {
				cn.kill()
			}
			s.connMu.Unlock()
			<-connsDone
		}

		s.stopCancel()
		close(s.closed)

		rep.Admitted = s.met.admitted.Value()
		rep.Completed = s.met.completed.Value()
		rep.Dropped = rep.Admitted - rep.Completed
		rep.RejectedOverload = s.met.rejOverload.Value()
		rep.RejectedDraining = s.met.rejDraining.Value()
		s.logf("drained: admitted=%d completed=%d dropped=%d rejected_overload=%d rejected_draining=%d forced=%v",
			rep.Admitted, rep.Completed, rep.Dropped, rep.RejectedOverload, rep.RejectedDraining, rep.Forced)
	})
	return rep
}

// conn is one client connection: a reader goroutine (framing + admission), a
// writer goroutine (response serialization), and a bounded response channel
// between workers and the writer. Both goroutines run under per-I/O
// deadlines and panic isolation, so a hostile or broken peer can cost the
// server at most this one connection — never a worker, never the process.
type conn struct {
	srv    *Server
	nc     net.Conn
	out    chan *protocol.Response
	dead   chan struct{}
	deadMu sync.Once
	// pending counts requests admitted from this connection whose responses
	// have not yet been enqueued; the reader waits on it before closing out.
	pending sync.WaitGroup
	// inflight counts admitted-but-unanswered requests for the
	// MaxInflightPerConn cap (reader checks, workers decrement).
	inflight atomic.Int64
	// tenant is the connection-default tenant set by hello (reader
	// goroutine only).
	tenant string
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{
		srv:  s,
		nc:   nc,
		out:  make(chan *protocol.Response, s.cfg.WriteQueue),
		dead: make(chan struct{}),
	}
}

// kill marks the connection dead and closes the socket, unblocking the
// reader (Read error) and making every later send a cheap discard.
func (cn *conn) kill() {
	cn.deadMu.Do(func() {
		close(cn.dead)
		cn.nc.Close()
	})
}

// send enqueues a response without ever blocking the caller. A full queue
// means the client is consuming responses slower than it pipelines requests
// — a slow (or stopped) reader — and the connection is evicted rather than
// parking a shared worker on it. Completed work on a dead connection is
// discarded — that is the client's loss, not a drain drop (the work
// finished).
func (cn *conn) send(resp *protocol.Response) {
	select {
	case cn.out <- resp:
	case <-cn.dead:
	default:
		cn.srv.met.connSlowEvicted.Inc()
		cn.srv.logf("evicting slow consumer %s: write queue full (%d)", cn.nc.RemoteAddr(), cap(cn.out))
		cn.kill()
	}
}

func (cn *conn) readLoop() {
	defer cn.srv.connWG.Done()
	cn.readFrames()
	// Every admitted request must have its response enqueued before the
	// writer is told to finish — this wait is the per-connection half of the
	// zero-drop drain guarantee. Workers never block on send, so this wait
	// is bounded by request execution, not by the peer.
	cn.pending.Wait()
	close(cn.out)
	cn.srv.removeConn(cn)
}

// readFrames is the reader's frame loop, isolated so a panic (a protocol
// handler bug) tears down this connection only, with the drain accounting
// in readLoop still running.
func (cn *conn) readFrames() {
	defer func() {
		if r := recover(); r != nil {
			cn.srv.met.connPanics.Inc()
			cn.srv.logf("connection reader panic: %v", r)
			cn.kill()
		}
	}()
	br := bufio.NewReaderSize(cn.nc, 16<<10)
	for {
		// Deadline before the draining check: if the drain poke lands after
		// this SetReadDeadline, the read still times out promptly; if it
		// landed before, the draining check below breaks the loop. Either
		// order wakes the reader — no missed-poke window.
		if to := cn.srv.cfg.ReadTimeout; to > 0 {
			cn.nc.SetReadDeadline(time.Now().Add(to))
		}
		if cn.srv.draining.Load() {
			break
		}
		req, err := protocol.ReadRequest(br, cn.srv.cfg.MaxFrame)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if cn.srv.draining.Load() {
					break // drain woke us; finish pending and close
				}
				// The peer went quiet past the read deadline: an idle
				// client, a half-open connection (peer vanished without
				// FIN), or a slow-loris feed stalling mid-frame. Evict it;
				// the reader goroutine is reclaimed either way.
				cn.srv.met.connIdleEvicted.Inc()
				cn.srv.logf("evicting idle/half-open connection %s after %v", cn.nc.RemoteAddr(), cn.srv.cfg.ReadTimeout)
				break
			}
			if errors.Is(err, protocol.ErrFrameTooLarge) || strings.Contains(err.Error(), "malformed request") {
				cn.srv.met.badRequests.Inc()
				cn.send(protocol.ErrResponse(0, protocol.CodeBadRequest, err.Error()))
			}
			break
		}
		cn.srv.handleRequest(cn, req)
	}
}

func (cn *conn) writeLoop() {
	defer cn.srv.connWG.Done()
	cn.writeFrames()
	// If writeFrames panicked mid-loop, keep draining so the reader's
	// close(out) is never stranded; on a closed channel this is a no-op.
	for range cn.out {
	}
	cn.nc.Close()
}

// The writer encodes into one buffer it owns and reuses across responses.
const (
	// writeBatch: while more responses are queued, frames are coalesced
	// into one write until this many bytes are pending.
	writeBatch = 16 << 10
	// keepEncodeBuf is the largest buffer kept between writes, so that one
	// 4 MiB answer does not pin 4 MiB for the life of its connection.
	keepEncodeBuf = 256 << 10
)

// writeFrames serializes responses until the out channel closes or the
// connection dies, under a per-write deadline: a peer that stops reading
// until TCP backpressure reaches us is evicted, not waited on.
func (cn *conn) writeFrames() {
	defer func() {
		if r := recover(); r != nil {
			cn.srv.met.connPanics.Inc()
			cn.srv.logf("connection writer panic: %v", r)
			cn.kill()
		}
	}()
	var buf []byte // frames encoded and not yet written
	var werr error
	for resp := range cn.out {
		if werr != nil {
			continue // connection dead; drain the channel so close proceeds
		}
		buf = cn.appendFrame(buf, resp)
		if len(cn.out) > 0 && len(buf) < writeBatch {
			continue // the response behind this one shares its write
		}
		if to := cn.srv.cfg.WriteTimeout; to > 0 {
			cn.nc.SetWriteDeadline(time.Now().Add(to))
		}
		_, werr = cn.nc.Write(buf)
		if cap(buf) > keepEncodeBuf {
			buf = nil
		} else {
			buf = buf[:0]
		}
		if werr != nil {
			var ne net.Error
			if errors.As(werr, &ne) && ne.Timeout() {
				cn.srv.met.connSlowEvicted.Inc()
				cn.srv.logf("evicting slow consumer %s: write stalled past %v", cn.nc.RemoteAddr(), cn.srv.cfg.WriteTimeout)
			}
			cn.kill()
		}
	}
}

// appendFrame appends resp to buf as one frame: four bytes kept for the
// length, the payload, then the length patched in. A response that cannot be
// encoded — a NaN or infinite cost, a payload over the frame cap — is
// answered with CodeInternal under its own ID: it fails one request, not the
// connection and every other request pipelined on it.
func (cn *conn) appendFrame(buf []byte, resp *protocol.Response) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	out, err := protocol.AppendResponse(buf, resp)
	if n := len(out) - len(buf); err == nil && n > cn.srv.cfg.MaxFrame {
		err = fmt.Errorf("%w: %d bytes > limit %d", protocol.ErrFrameTooLarge, n, cn.srv.cfg.MaxFrame)
	}
	if err != nil {
		cn.srv.logf("response %d to %s: %v", resp.ID, cn.nc.RemoteAddr(), err)
		msg := "response not encodable"
		if errors.Is(err, protocol.ErrFrameTooLarge) {
			msg = "response exceeds frame limit"
		}
		// An ID, a code and a short message always encode.
		out, _ = protocol.AppendResponse(buf, protocol.ErrResponse(resp.ID, protocol.CodeInternal, msg))
	}
	binary.BigEndian.PutUint32(out[start:], uint32(len(out)-len(buf)))
	return out
}

func defaultWorkers() int {
	n := 2 * runtime.GOMAXPROCS(0)
	if n < 4 {
		n = 4
	}
	return n
}
