package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autostats"
	"autostats/internal/protocol"
	"autostats/internal/server"
)

// tpcdFactory builds a tiny real tenant system per tenant name.
func tpcdFactory(string) (*autostats.System, error) {
	return autostats.GenerateTPCD(autostats.TPCDOptions{Scale: 0.02, Skew: 1})
}

func startServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.NewTenant == nil {
		cfg.NewTenant = tpcdFactory
	}
	cfg.Logf = t.Logf
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// testConn speaks raw protocol frames so the server tests do not depend on
// the client package.
type testConn struct {
	t  *testing.T
	nc net.Conn
	fr *protocol.FrameReader
}

func dialServer(t *testing.T, s *server.Server) *testConn {
	t.Helper()
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &testConn{t: t, nc: nc, fr: protocol.NewFrameReader(nc, 0)}
}

// send writes v as one frame.
func (c *testConn) send(v any) error {
	frame, err := protocol.EncodeFrame(v, 0)
	if err == nil {
		_, err = c.nc.Write(frame)
	}
	return err
}

func (c *testConn) write(req *protocol.Request) {
	c.t.Helper()
	if err := c.send(req); err != nil {
		c.t.Fatalf("write %+v: %v", req, err)
	}
}

// recv reads and decodes the next response frame.
func (c *testConn) recv() (*protocol.Response, error) {
	payload, err := c.fr.Next()
	if err != nil {
		return nil, err
	}
	return protocol.DecodeResponse(payload)
}

func (c *testConn) read() *protocol.Response {
	c.t.Helper()
	c.nc.SetReadDeadline(time.Now().Add(30 * time.Second))
	resp, err := c.recv()
	if err != nil {
		c.t.Fatalf("read response: %v", err)
	}
	return resp
}

// rt is a non-pipelined round trip.
func (c *testConn) rt(req *protocol.Request) *protocol.Response {
	c.t.Helper()
	c.write(req)
	resp := c.read()
	if resp.ID != req.ID {
		c.t.Fatalf("response ID %d for request %d", resp.ID, req.ID)
	}
	return resp
}

func (c *testConn) hello(tenant string) *protocol.HelloResult {
	c.t.Helper()
	resp := c.rt(&protocol.Request{ID: 1, Op: protocol.OpHello, Version: protocol.Version, Tenant: tenant})
	if resp.Code != "" || resp.Hello == nil {
		c.t.Fatalf("hello failed: %+v", resp)
	}
	return resp.Hello
}

func TestServerRoundTrips(t *testing.T) {
	s := startServer(t, server.Config{})
	c := dialServer(t, s)

	h := c.hello("alpha")
	if h.Version != protocol.Version || h.Tenant != "alpha" {
		t.Fatalf("hello result %+v", h)
	}

	// exec SELECT against the connection-default tenant.
	resp := c.rt(&protocol.Request{ID: 2, Op: protocol.OpExec, SQL: "SELECT * FROM orders WHERE o_orderkey > 10"})
	if resp.Code != "" || resp.Exec == nil {
		t.Fatalf("exec: %+v", resp)
	}
	if len(resp.Exec.Rows) == 0 || resp.Exec.Plan == "" {
		t.Fatalf("exec returned no rows or no plan: %+v", resp.Exec)
	}

	// exec DML.
	resp = c.rt(&protocol.Request{ID: 3, Op: protocol.OpExec, SQL: "DELETE FROM lineitem WHERE l_quantity > 49"})
	if resp.Code != "" || resp.Exec == nil {
		t.Fatalf("exec dml: %+v", resp)
	}

	// explain, against an explicit second tenant (lazy creation).
	resp = c.rt(&protocol.Request{ID: 4, Op: protocol.OpExplain, Tenant: "beta", SQL: "SELECT * FROM orders WHERE o_orderkey > 10"})
	if resp.Code != "" || resp.Plan == "" {
		t.Fatalf("explain: %+v", resp)
	}

	// tune one query, then stats must show created statistics.
	resp = c.rt(&protocol.Request{ID: 5, Op: protocol.OpTune,
		SQL: "SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_quantity > 45"})
	if resp.Code != "" || resp.Tune == nil {
		t.Fatalf("tune: %+v", resp)
	}
	resp = c.rt(&protocol.Request{ID: 6, Op: protocol.OpStats})
	if resp.Code != "" {
		t.Fatalf("stats: %+v", resp)
	}
	if len(resp.Stats) == 0 {
		t.Fatalf("no statistics after tune")
	}

	// maintenance.
	resp = c.rt(&protocol.Request{ID: 7, Op: protocol.OpMaintain})
	if resp.Code != "" || resp.Maintain == nil {
		t.Fatalf("maintain: %+v", resp)
	}

	// metrics text includes the server's own counters.
	resp = c.rt(&protocol.Request{ID: 8, Op: protocol.OpMetrics})
	if resp.Code != "" || !strings.Contains(resp.Metrics, "server.requests.admitted") {
		t.Fatalf("metrics: %+v", resp)
	}

	// error paths.
	if resp = c.rt(&protocol.Request{ID: 9, Op: protocol.OpExec, SQL: "SELECT garbage FROM nowhere"}); resp.Code != protocol.CodeSQL {
		t.Fatalf("bad sql code %q", resp.Code)
	}
	if resp = c.rt(&protocol.Request{ID: 10, Op: protocol.OpExec, SQL: "   "}); resp.Code != protocol.CodeBadRequest {
		t.Fatalf("empty sql code %q", resp.Code)
	}
	if resp = c.rt(&protocol.Request{ID: 11, Op: "nonsense"}); resp.Code != protocol.CodeUnknownOp {
		t.Fatalf("unknown op code %q", resp.Code)
	}
	if resp = c.rt(&protocol.Request{ID: 12, Op: protocol.OpExec, Tenant: "bad tenant", SQL: "SELECT 1"}); resp.Code != protocol.CodeBadRequest {
		t.Fatalf("bad tenant name code %q", resp.Code)
	}

	if n := s.Obs().Snapshot().Gauges["server.tenants.live"]; n != 2 {
		t.Fatalf("server.tenants.live = %d, want 2", n)
	}
	for name, st := range s.TenantPlanCacheStats() {
		if st.Capacity == 0 {
			t.Fatalf("tenant %s plan-cache stats empty: %+v", name, st)
		}
	}
}

// TestServerTuneIgnoresRetiredParallelism: clients built against the protocol
// when TuneParams still had a parallelism field keep sending it under the
// same protocol version; such a frame must decode and tune like any other,
// the field ignored.
func TestServerTuneIgnoresRetiredParallelism(t *testing.T) {
	s := startServer(t, server.Config{})
	c := dialServer(t, s)
	c.hello("alpha")
	frame := json.RawMessage(`{"id":2,"op":"tune",` +
		`"sql":"SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_quantity > 45",` +
		`"tuneopts":{"shrink":true,"parallelism":4}}`)
	if err := c.send(frame); err != nil {
		t.Fatal(err)
	}
	resp := c.read()
	if resp.ID != 2 || resp.Code != "" || resp.Tune == nil {
		t.Fatalf("tune with retired field: %+v", resp)
	}
	if len(resp.Tune.Created) == 0 || len(resp.Tune.Essential) == 0 {
		t.Fatalf("tune built nothing or skipped the requested shrink: %+v", resp.Tune)
	}
}

func TestServerMissingTenant(t *testing.T) {
	s := startServer(t, server.Config{})
	c := dialServer(t, s)
	// No hello tenant, no request tenant.
	resp := c.rt(&protocol.Request{ID: 1, Op: protocol.OpExec, SQL: "SELECT 1"})
	if resp.Code != protocol.CodeBadRequest {
		t.Fatalf("code %q, want bad_request", resp.Code)
	}
}

// TestServerMalformedFrame: a frame that is not a JSON request, and one whose
// length prefix is over the cap, are both answered with bad_request before
// the connection closes — classified by error type (protocol.ErrMalformed,
// protocol.ErrFrameTooLarge), whatever the decoder's message says.
func TestServerMalformedFrame(t *testing.T) {
	s := startServer(t, server.Config{MaxFrame: 1 << 10})
	for name, frame := range map[string][]byte{
		"not json":  []byte("\x00\x00\x00\x08not json"),
		"oversized": append([]byte{0, 0, 8, 0}, make([]byte, 2<<10)...),
	} {
		c := dialServer(t, s)
		c.hello("alpha")
		if _, err := c.nc.Write(frame); err != nil {
			t.Fatal(err)
		}
		if resp := c.read(); resp.Code != protocol.CodeBadRequest || resp.ID != 0 {
			t.Fatalf("%s: %+v, want bad_request", name, resp)
		}
		c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.recv(); err == nil {
			t.Fatalf("%s: connection still open after an undecodable frame", name)
		}
	}
	if got := s.Obs().Counter("server.requests.bad").Value(); got != 2 {
		t.Fatalf("server.requests.bad = %d, want 2", got)
	}
}

func TestServerVersionMismatch(t *testing.T) {
	s := startServer(t, server.Config{})
	c := dialServer(t, s)
	resp := c.rt(&protocol.Request{ID: 1, Op: protocol.OpHello, Version: 99})
	if resp.Code != protocol.CodeVersion {
		t.Fatalf("code %q, want version", resp.Code)
	}
}

func TestServerTenantLimit(t *testing.T) {
	s := startServer(t, server.Config{MaxTenants: 1})
	c := dialServer(t, s)
	c.hello("one")
	if resp := c.rt(&protocol.Request{ID: 2, Op: protocol.OpStats}); resp.Code != "" {
		t.Fatalf("first tenant: %+v", resp)
	}
	resp := c.rt(&protocol.Request{ID: 3, Op: protocol.OpStats, Tenant: "two"})
	if resp.Code != protocol.CodeTenantLimit {
		t.Fatalf("code %q, want tenant_limit", resp.Code)
	}
}

func TestServerPipelinedOutOfOrder(t *testing.T) {
	s := startServer(t, server.Config{Workers: 4})
	c := dialServer(t, s)
	c.hello("p")

	const n = 12
	for i := 0; i < n; i++ {
		c.write(&protocol.Request{ID: uint64(100 + i), Op: protocol.OpExec,
			SQL: fmt.Sprintf("SELECT * FROM orders WHERE o_orderkey > %d", i)})
	}
	seen := make(map[uint64]bool, n)
	for i := 0; i < n; i++ {
		resp := c.read()
		if resp.Code != "" {
			t.Fatalf("request %d failed: %+v", resp.ID, resp)
		}
		if seen[resp.ID] {
			t.Fatalf("duplicate response for %d", resp.ID)
		}
		seen[resp.ID] = true
	}
	for i := 0; i < n; i++ {
		if !seen[uint64(100+i)] {
			t.Fatalf("no response for request %d", 100+i)
		}
	}
}

// blockingFactory parks every tenant creation until release is closed —
// a deterministic way to wedge the worker pool for overload and drain tests.
func blockingFactory() (factory func(string) (*autostats.System, error), started chan string, release chan struct{}) {
	started = make(chan string, 16)
	release = make(chan struct{})
	factory = func(name string) (*autostats.System, error) {
		started <- name
		<-release
		return nil, errors.New("synthetic tenant failure")
	}
	return factory, started, release
}

func TestServerOverloadFastFail(t *testing.T) {
	factory, started, release := blockingFactory()
	s := startServer(t, server.Config{Workers: 1, QueueDepth: 1, NewTenant: factory})
	c := dialServer(t, s)
	c.hello("wedge")

	// First request: admitted, picked up by the lone worker, wedged in the
	// factory. Wait for the wedge before sending more so admission order is
	// deterministic.
	c.write(&protocol.Request{ID: 1, Op: protocol.OpStats})
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never reached the tenant factory")
	}
	// Second request fills the queue; third must fast-fail.
	c.write(&protocol.Request{ID: 2, Op: protocol.OpStats})
	// The queued slot is consumed asynchronously; give admission a moment,
	// then hammer until an overload appears (bounded).
	var overloaded *protocol.Response
	for i := 0; i < 50 && overloaded == nil; i++ {
		c.write(&protocol.Request{ID: uint64(10 + i), Op: protocol.OpStats})
		resp := c.read()
		if resp.Code == protocol.CodeOverloaded {
			overloaded = resp
		} else if resp.Code != "" && resp.Code != protocol.CodeInternal {
			t.Fatalf("unexpected code %q: %+v", resp.Code, resp)
		}
	}
	if overloaded == nil {
		t.Fatal("no overloaded fast-fail with Workers=1 QueueDepth=1 and a wedged worker")
	}
	if err := overloaded.Err(); !errors.Is(err, protocol.ErrOverloaded) {
		t.Fatalf("overloaded response maps to %v, want ErrOverloaded", err)
	}
	close(release)
	// The wedged requests complete (with CodeInternal — the factory fails).
	for i := 0; i < 2; i++ {
		if resp := c.read(); resp.Code != protocol.CodeInternal {
			t.Fatalf("wedged request resolved with %q, want internal", resp.Code)
		}
	}
}

func TestServerDrainCompletesInflight(t *testing.T) {
	factory, started, release := blockingFactory()
	s := startServer(t, server.Config{Workers: 2, QueueDepth: 8, NewTenant: factory})
	c := dialServer(t, s)
	c.hello("drainee")

	// Admit two requests and wedge both workers.
	c.write(&protocol.Request{ID: 1, Op: protocol.OpStats})
	c.write(&protocol.Request{ID: 2, Op: protocol.OpStats, Tenant: "drainee2"})
	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatal("workers never wedged")
		}
	}

	// Shutdown concurrently: it must wait for the wedged requests.
	var wg sync.WaitGroup
	repCh := make(chan server.DrainReport, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		repCh <- s.Shutdown(ctx)
	}()

	// Wait for Shutdown to actually start draining (no arbitrary sleep).
	for deadline := time.Now().Add(10 * time.Second); s.Ready(); {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	// Both admitted requests must get responses before the connection closes.
	got := map[uint64]string{}
	for i := 0; i < 2; i++ {
		resp := c.read()
		got[resp.ID] = resp.Code
	}
	for _, id := range []uint64{1, 2} {
		if got[id] != protocol.CodeInternal {
			t.Fatalf("request %d resolved %q, want internal (factory error)", id, got[id])
		}
	}

	wg.Wait()
	rep := <-repCh
	if rep.Dropped != 0 {
		t.Fatalf("drain dropped %d admitted requests: %+v", rep.Dropped, rep)
	}
	if rep.Admitted != 2 || rep.Completed != 2 {
		t.Fatalf("drain accounting: %+v", rep)
	}
	if rep.Forced {
		t.Fatalf("drain was forced: %+v", rep)
	}

	// The connection is closed once drained.
	c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.recv(); err == nil {
		t.Fatal("connection still open after drain")
	}
}

func TestServerDrainRejectsNewConnections(t *testing.T) {
	s := startServer(t, server.Config{})
	c := dialServer(t, s)
	c.hello("x")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep := s.Shutdown(ctx)
	if rep.Dropped != 0 {
		t.Fatalf("dropped %d", rep.Dropped)
	}
	if _, err := net.DialTimeout("tcp", s.Addr().String(), time.Second); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}

func TestServerConfigValidation(t *testing.T) {
	if _, err := server.New(server.Config{}); err == nil {
		t.Fatal("New accepted a config without NewTenant")
	}
}

// waitCounter polls an obs counter until it reaches want or the deadline
// passes; eviction and panic accounting is asynchronous to the triggering
// write, so tests must not read the counter immediately.
func waitCounter(t *testing.T, s *server.Server, name string, want int64) int64 {
	t.Helper()
	var v int64
	for deadline := time.Now().Add(10 * time.Second); ; {
		v = s.Obs().Counter(name).Value()
		if v >= want || time.Now().After(deadline) {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerIdleEviction: a connection that goes silent (the half-open case
// — a peer that vanished without a FIN looks identical to the server's read
// loop) is evicted within the read timeout, with the eviction counted.
func TestServerIdleEviction(t *testing.T) {
	s := startServer(t, server.Config{ReadTimeout: 200 * time.Millisecond})
	c := dialServer(t, s)
	c.hello("idle")
	// Go silent. The server must close the connection on its own.
	c.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := c.recv(); err == nil {
		t.Fatal("idle connection still alive past the read timeout")
	}
	if v := waitCounter(t, s, "server.conn.idle_evicted", 1); v < 1 {
		t.Fatalf("server.conn.idle_evicted = %d, want >= 1", v)
	}
}

// TestServerHalfOpenMidRequestVanish: the client sends a request and then
// vanishes abruptly (RST, no FIN) before the response. The worker must not
// wedge — the server keeps serving new connections and drains cleanly.
func TestServerHalfOpenMidRequestVanish(t *testing.T) {
	s := startServer(t, server.Config{ReadTimeout: 500 * time.Millisecond})
	c := dialServer(t, s)
	c.hello("ghost")
	c.write(&protocol.Request{ID: 2, Op: protocol.OpExec, SQL: "SELECT * FROM orders WHERE o_orderkey > 10"})
	// Vanish without a FIN: linger 0 turns Close into a reset.
	if tc, ok := c.nc.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.nc.Close()

	// The worker that picked up the doomed request must be reclaimed: a
	// fresh connection round-trips fine and shutdown balances its books.
	c2 := dialServer(t, s)
	c2.hello("alive")
	if resp := c2.rt(&protocol.Request{ID: 2, Op: protocol.OpStats}); resp.Code != "" {
		t.Fatalf("server unhealthy after half-open client: %+v", resp)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	rep := s.Shutdown(ctx)
	if rep.Dropped != 0 || rep.Forced {
		t.Fatalf("drain after half-open client: %+v", rep)
	}
}

// TestServerSlowClientEvicted: a client that sends requests but never reads
// responses is evicted (bounded write queue + write deadline) instead of
// wedging workers behind a full TCP window.
func TestServerSlowClientEvicted(t *testing.T) {
	s := startServer(t, server.Config{
		Workers:      4,
		WriteTimeout: 300 * time.Millisecond,
		WriteQueue:   2,
	})
	c := dialServer(t, s)
	c.hello("loris")
	// Pipeline many full-table scans and never read a byte back. The
	// responses overflow the socket buffers, the write deadline fires, and
	// the connection is killed.
	for i := 0; i < 256; i++ {
		// The eviction can land before the whole pipeline is written; a
		// failed write is then the reset this test is waiting for.
		if err := c.send(&protocol.Request{ID: uint64(2 + i), Op: protocol.OpExec,
			SQL: "SELECT * FROM lineitem WHERE l_quantity > 0"}); err != nil {
			break
		}
	}
	if v := waitCounter(t, s, "server.conn.slow_evicted", 1); v < 1 {
		t.Fatalf("server.conn.slow_evicted = %d, want >= 1", v)
	}
	// The pool frees up once the evicted connection's queued scans have
	// drained; until then a newcomer is told to back off. After that a
	// well-behaved connection round-trips.
	c2 := dialServer(t, s)
	c2.hello("polite")
	var resp *protocol.Response
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp = c2.rt(&protocol.Request{ID: 2, Op: protocol.OpStats})
		if resp.Code != protocol.CodeOverloaded || time.Now().After(deadline) {
			break
		}
	}
	if resp.Code != "" {
		t.Fatalf("server unhealthy after slow-client eviction: %+v", resp)
	}
}

// TestServerInflightCap: one connection cannot occupy more than
// MaxInflightPerConn worker/queue slots; the excess fast-fails with
// CodeOverloaded while other connections proceed.
func TestServerInflightCap(t *testing.T) {
	factory, started, release := blockingFactory()
	s := startServer(t, server.Config{
		Workers: 1, QueueDepth: 8, MaxInflightPerConn: 2, NewTenant: factory})
	c := dialServer(t, s)
	c.hello("hog")

	// First request wedges the worker; second sits in the queue. Both count
	// against this connection's in-flight cap.
	c.write(&protocol.Request{ID: 2, Op: protocol.OpStats})
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never wedged")
	}
	c.write(&protocol.Request{ID: 3, Op: protocol.OpStats})
	// Third request breaches the cap and must fast-fail even though the
	// shared queue still has room.
	resp := c.rt(&protocol.Request{ID: 4, Op: protocol.OpStats})
	if resp.Code != protocol.CodeOverloaded {
		t.Fatalf("over-cap request got %q, want overloaded", resp.Code)
	}
	if !strings.Contains(resp.Error, "in flight") {
		t.Fatalf("over-cap message %q does not mention the in-flight cap", resp.Error)
	}
	if v := s.Obs().Counter("server.conn.inflight_rejects").Value(); v != 1 {
		t.Fatalf("server.conn.inflight_rejects = %d, want 1", v)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if resp := c.read(); resp.Code != protocol.CodeInternal {
			t.Fatalf("wedged request resolved %q, want internal", resp.Code)
		}
	}
}

// TestServerTenantRateLimit: a tenant over its req/s quota is rejected with
// the stable rate_limited code, mapped to ErrRateLimited client-side.
func TestServerTenantRateLimit(t *testing.T) {
	s := startServer(t, server.Config{TenantRPS: 1, TenantBurst: 1})
	c := dialServer(t, s)
	c.hello("greedy")
	if resp := c.rt(&protocol.Request{ID: 2, Op: protocol.OpStats}); resp.Code != "" {
		t.Fatalf("first request within quota failed: %+v", resp)
	}
	resp := c.rt(&protocol.Request{ID: 3, Op: protocol.OpStats})
	if resp.Code != protocol.CodeRateLimited {
		t.Fatalf("second request got %q, want rate_limited", resp.Code)
	}
	if err := resp.Err(); !errors.Is(err, protocol.ErrRateLimited) {
		t.Fatalf("rate-limited response maps to %v, want ErrRateLimited", err)
	}
	if v := s.Obs().Counter("server.tenant.rate_limited").Value(); v < 1 {
		t.Fatalf("server.tenant.rate_limited = %d, want >= 1", v)
	}
	// Hellos and metrics are not rate limited — the quota protects workers,
	// not the control plane.
	if resp := c.rt(&protocol.Request{ID: 4, Op: protocol.OpMetrics}); resp.Code != "" {
		t.Fatalf("metrics should bypass the tenant quota: %+v", resp)
	}
}

// TestServerRequestTimeout: an operation that exceeds the server-side
// request deadline resolves with the typed timeout code instead of holding
// a worker indefinitely.
func TestServerRequestTimeout(t *testing.T) {
	slowFactory := func(name string) (*autostats.System, error) {
		time.Sleep(300 * time.Millisecond)
		return tpcdFactory(name)
	}
	s := startServer(t, server.Config{
		RequestTimeout: 50 * time.Millisecond, NewTenant: slowFactory})
	c := dialServer(t, s)
	c.hello("slow")
	resp := c.rt(&protocol.Request{ID: 2, Op: protocol.OpStats})
	if resp.Code != protocol.CodeTimeout {
		t.Fatalf("slow request got %q, want timeout", resp.Code)
	}
	if err := resp.Err(); !errors.Is(err, protocol.ErrTimeout) {
		t.Fatalf("timeout response maps to %v, want ErrTimeout", err)
	}
	if v := s.Obs().Counter("server.requests.timeouts").Value(); v < 1 {
		t.Fatalf("server.requests.timeouts = %d, want >= 1", v)
	}
}

// TestServerWorkerPanicRecovery: a panic inside request execution (here: a
// factory handing back a nil system) resolves as CodeInternal and is
// counted; the worker survives to serve the next request.
func TestServerWorkerPanicRecovery(t *testing.T) {
	s := startServer(t, server.Config{
		NewTenant: func(string) (*autostats.System, error) { return nil, nil }})
	c := dialServer(t, s)
	c.hello("nilsys")
	resp := c.rt(&protocol.Request{ID: 2, Op: protocol.OpStats})
	if resp.Code != protocol.CodeInternal || !strings.Contains(resp.Error, "panic") {
		t.Fatalf("panicking request got %+v, want internal panic error", resp)
	}
	if v := s.Obs().Counter("server.worker.panics").Value(); v != 1 {
		t.Fatalf("server.worker.panics = %d, want 1", v)
	}
	// The worker recovered: the connection still answers.
	if resp := c.rt(&protocol.Request{ID: 3, Op: protocol.OpMetrics}); resp.Code != "" {
		t.Fatalf("worker did not survive the panic: %+v", resp)
	}
}

// TestServerTenantFactoryPanic: a panicking tenant factory surfaces as an
// error (not a poisoned sync.Once), and the next request retries cleanly.
func TestServerTenantFactoryPanic(t *testing.T) {
	var calls int32
	s := startServer(t, server.Config{
		NewTenant: func(name string) (*autostats.System, error) {
			if atomic.AddInt32(&calls, 1) == 1 {
				panic("synthetic factory explosion")
			}
			return tpcdFactory(name)
		}})
	c := dialServer(t, s)
	c.hello("boom")
	resp := c.rt(&protocol.Request{ID: 2, Op: protocol.OpStats})
	if resp.Code != protocol.CodeInternal || !strings.Contains(resp.Error, "panicked") {
		t.Fatalf("factory panic surfaced as %+v, want internal ...panicked...", resp)
	}
	if v := s.Obs().Counter("server.tenant.factory_panics").Value(); v != 1 {
		t.Fatalf("server.tenant.factory_panics = %d, want 1", v)
	}
	// The failed entry was dropped; the retry builds the tenant for real.
	if resp := c.rt(&protocol.Request{ID: 3, Op: protocol.OpStats}); resp.Code != "" {
		t.Fatalf("tenant never recovered from the factory panic: %+v", resp)
	}
}

// TestServerHealthEndpoints: /healthz is always 200; /readyz tracks
// Started-and-not-draining.
func TestServerHealthEndpoints(t *testing.T) {
	cfg := server.Config{Addr: "127.0.0.1:0", NewTenant: tpcdFactory}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, stop, err := server.ServeOps("127.0.0.1:0", s.Obs(), s.Ready)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	status := func(path string) int {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/healthz"); got != 200 {
		t.Fatalf("/healthz before start = %d, want 200", got)
	}
	if got := status("/readyz"); got != 503 {
		t.Fatalf("/readyz before start = %d, want 503", got)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if got := status("/readyz"); got != 200 {
		t.Fatalf("/readyz after start = %d, want 200", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.Shutdown(ctx)
	if got := status("/readyz"); got != 503 {
		t.Fatalf("/readyz after shutdown = %d, want 503", got)
	}
	if got := status("/healthz"); got != 200 {
		t.Fatalf("/healthz after shutdown = %d, want 200 (liveness, not readiness)", got)
	}
	if got := status("/"); got != 200 {
		t.Fatalf("/ (metrics) = %d, want 200", got)
	}
}
