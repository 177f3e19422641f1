package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autostats"
	"autostats/client"
	"autostats/internal/protocol"
	"autostats/internal/server"
)

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

func TestClientRoundTrips(t *testing.T) {
	s := startServer(t, server.Config{})
	c, err := client.Dial(s.Addr().String(), client.Options{Tenant: "t1"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if h := c.Hello(); h.Version != protocol.Version || h.Tenant != "t1" {
		t.Fatalf("hello %+v", h)
	}

	ctx := context.Background()
	res, err := c.Exec(ctx, "SELECT * FROM orders WHERE o_orderkey > 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	plan, err := c.Explain(ctx, "SELECT * FROM orders WHERE o_orderkey > 10")
	if err != nil || plan == "" {
		t.Fatalf("explain: %q, %v", plan, err)
	}
	if _, err := c.Tune(ctx,
		[]string{"SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_quantity > 45"},
		nil); err != nil {
		t.Fatal(err)
	}
	rows, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no statistics after tune")
	}
	if _, err := c.Maintain(ctx); err != nil {
		t.Fatal(err)
	}
	metrics, err := c.Metrics(ctx)
	if err != nil || !strings.Contains(metrics, "server.requests.admitted") {
		t.Fatalf("metrics: %v\n%s", err, metrics)
	}
	// SQL errors carry the server's code, not a transport failure.
	if _, err := c.Exec(ctx, "SELECT junk FROM nowhere"); err == nil ||
		!strings.Contains(err.Error(), protocol.CodeSQL) {
		t.Fatalf("bad sql error: %v", err)
	}
}

func TestClientConcurrentPipelining(t *testing.T) {
	s := startServer(t, server.Config{Workers: 4})
	c, err := client.Dial(s.Addr().String(), client.Options{Tenant: "pipe"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if _, err := c.Exec(ctx, "SELECT * FROM orders WHERE o_orderkey > 10"); err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestClientOverloadedError(t *testing.T) {
	// A factory that wedges until released turns the 1-worker, 1-slot server
	// into a deterministic overload generator.
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s := startServer(t, server.Config{Workers: 1, QueueDepth: 1,
		NewTenant: func(string) (*autostats.System, error) {
			started <- struct{}{}
			<-release
			return nil, errors.New("wedged")
		}})

	c, err := client.Dial(s.Addr().String(), client.Options{Tenant: "w"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	var wg sync.WaitGroup
	results := make(chan error, 64)
	wg.Add(1)
	go func() { defer wg.Done(); results <- statErr(ctx, c) }()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never wedged")
	}
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); results <- statErr(ctx, c) }()
	}
	// With the lone worker wedged and the one queue slot taken, 19 of the 20
	// fast-fail; wait for them BEFORE releasing the wedge (the two wedged
	// calls cannot finish until it opens).
	deadline := time.Now().Add(15 * time.Second)
	for len(results) < 19 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(results)
	var overloaded, served int
	for err := range results {
		switch {
		case errors.Is(err, protocol.ErrOverloaded):
			overloaded++
		case err != nil && strings.Contains(err.Error(), "wedged"):
			// The factory's own error: a served response, not a rejection.
			served++
		default:
			// A transport failure or another code would mean rejections do
			// not all surface as ErrOverloaded.
			t.Errorf("call resolved with %v, want ErrOverloaded or the factory error", err)
		}
	}
	if overloaded == 0 {
		t.Fatal("no call surfaced protocol.ErrOverloaded")
	}
	// The wedged call and the queued one are served once the wedge opens:
	// rejecting the burst leaked neither slot.
	if served != 2 {
		t.Errorf("%d calls served after the wedge opened, want 2", served)
	}
}

func statErr(ctx context.Context, c *client.Client) error {
	_, err := c.Stats(ctx)
	return err
}

func TestClientReconnect(t *testing.T) {
	s1 := startServer(t, server.Config{})
	addr := s1.Addr().String()
	c, err := client.Dial(addr, client.Options{Tenant: "r"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	if _, err := c.Exec(ctx, "SELECT * FROM orders WHERE o_orderkey > 10"); err != nil {
		t.Fatal(err)
	}

	// Kill the server; the in-flight generation dies, and because the next
	// dial attempt may race the port re-bind, the client's backoff schedule
	// absorbs the gap.
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	s1.Shutdown(sctx)
	cancel()
	s2 := startServer(t, server.Config{Addr: addr})
	_ = s2

	// The first call after the kill may see the dead generation's error;
	// a subsequent call must transparently redial.
	deadline := time.Now().Add(15 * time.Second)
	for {
		_, err = c.Exec(ctx, "SELECT * FROM orders WHERE o_orderkey > 10")
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never reconnected: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestClientClose(t *testing.T) {
	s := startServer(t, server.Config{})
	c, err := client.Dial(s.Addr().String(), client.Options{Tenant: "x"})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Exec(context.Background(), "SELECT 1"); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestClientDialFailure(t *testing.T) {
	_, err := client.Dial("127.0.0.1:1", client.Options{
		Tenant: "x", DialTimeout: 200 * time.Millisecond})
	if err == nil {
		t.Fatal("Dial to a dead port succeeded")
	}
}

// TestClientDialHelloTimeout is the regression test for Dial hanging against
// a listener that accepts the TCP connection but never reads: the
// synchronous hello must fail within HelloTimeout, not block forever.
func TestClientDialHelloTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var (
		mu    sync.Mutex
		conns []net.Conn
	)
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			// Accept and stall: never read, never write.
			mu.Lock()
			conns = append(conns, nc)
			mu.Unlock()
		}
	}()
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, nc := range conns {
			nc.Close()
		}
	}()

	start := time.Now()
	_, err = client.Dial(ln.Addr().String(), client.Options{
		Tenant:       "stall",
		HelloTimeout: 150 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("Dial against an accept-and-stall listener succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Dial blocked %v against a wedged listener", elapsed)
	}
}

// fakeStatsServer speaks just enough of the wire protocol for fault-injection
// tests: it answers hellos itself, announcing maxFrame (0 leaves the field
// unset, which means protocol.DefaultMaxFrame), and hands every other request
// to handle, which may respond, stay silent, or kill the connection.
func fakeStatsServer(t *testing.T, maxFrame int, handle func(nc net.Conn, req *protocol.Request)) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				fr := protocol.NewFrameReader(nc, maxFrame)
				for {
					payload, err := fr.Next()
					if err != nil {
						return
					}
					req, err := protocol.DecodeRequest(payload)
					if err != nil {
						return
					}
					if req.Op == protocol.OpHello {
						reply(nc, &protocol.Response{ID: req.ID, Hello: &protocol.HelloResult{
							Version: protocol.Version, MaxFrame: maxFrame, Tenant: req.Tenant}})
						continue
					}
					handle(nc, req)
				}
			}(nc)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln
}

// reply writes resp as one frame, with no cap beyond the frame format's own.
func reply(nc net.Conn, resp *protocol.Response) {
	if frame, err := protocol.EncodeFrame(resp, math.MaxInt32); err == nil {
		nc.Write(frame)
	}
}

// TestClientConnLostTypedAndExecNotReplayed checks both halves of the
// disconnect contract: an in-flight request fails with the typed ErrConnLost
// when the server vanishes mid-request, and a non-idempotent Exec is never
// silently replayed on the reconnect.
func TestClientConnLostTypedAndExecNotReplayed(t *testing.T) {
	var execs atomic.Int64
	ln := fakeStatsServer(t, 0, func(nc net.Conn, req *protocol.Request) {
		if req.Op == protocol.OpExec {
			execs.Add(1)
			nc.Close() // die mid-request, no response
		}
	})
	c, err := client.Dial(ln.Addr().String(), client.Options{Tenant: "t"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Exec(context.Background(), "SELECT 1")
	if !errors.Is(err, client.ErrConnLost) {
		t.Fatalf("err = %v, want ErrConnLost", err)
	}
	// Any erroneous replay would redial and resend; give it a moment to land.
	time.Sleep(100 * time.Millisecond)
	if n := execs.Load(); n != 1 {
		t.Fatalf("exec reached the server %d times; a lost connection must never replay it", n)
	}
}

// TestClientMalformedResponseTyped: a frame that is not a JSON response ends
// the connection, and the call in flight reports why by type — ErrConnLost
// for the retry policy, protocol.ErrMalformed for the cause.
func TestClientMalformedResponseTyped(t *testing.T) {
	ln := fakeStatsServer(t, 0, func(nc net.Conn, req *protocol.Request) {
		nc.Write([]byte("\x00\x00\x00\x08not json"))
	})
	c, err := client.Dial(ln.Addr().String(), client.Options{Tenant: "t"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Exec(context.Background(), "SELECT 1")
	if !errors.Is(err, client.ErrConnLost) || !errors.Is(err, protocol.ErrMalformed) {
		t.Fatalf("err = %v, want ErrConnLost wrapping protocol.ErrMalformed", err)
	}
}

// TestClientIdempotentRetriedAfterConnLoss checks that a read-only call lost
// mid-flight is transparently retried once on a fresh connection.
func TestClientIdempotentRetriedAfterConnLoss(t *testing.T) {
	var statsCalls atomic.Int64
	ln := fakeStatsServer(t, 0, func(nc net.Conn, req *protocol.Request) {
		if req.Op != protocol.OpStats {
			return
		}
		if statsCalls.Add(1) == 1 {
			nc.Close() // first attempt dies mid-flight
			return
		}
		reply(nc, &protocol.Response{ID: req.ID,
			Stats: []protocol.StatRow{{Table: "orders", Columns: []string{"o_orderkey"}}},
		})
	})
	c, err := client.Dial(ln.Addr().String(), client.Options{Tenant: "t"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rows, err := c.Stats(context.Background())
	if err != nil {
		t.Fatalf("idempotent stats not retried: %v", err)
	}
	if len(rows) != 1 {
		t.Fatalf("stats rows = %d, want 1", len(rows))
	}
	if n := statsCalls.Load(); n != 2 {
		t.Fatalf("stats attempts = %d, want 2 (original + one retry)", n)
	}
}

// TestClientRequestTimeout checks that Options.RequestTimeout bounds calls
// whose contexts carry no deadline of their own.
func TestClientRequestTimeout(t *testing.T) {
	ln := fakeStatsServer(t, 0, func(nc net.Conn, req *protocol.Request) {
		// Swallow the request: never respond, keep the connection open.
	})
	c, err := client.Dial(ln.Addr().String(), client.Options{
		Tenant: "t", RequestTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	_, err = c.Exec(context.Background(), "SELECT 1")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("call blocked %v with a 150ms request timeout", elapsed)
	}
}

// TestClientUsesAnnouncedFrameCap: the frame cap a server announces in its
// hello governs the connection in both directions. A server allowing 8 MiB
// takes a 5 MiB statement and answers with a 5 MiB frame; both are over
// protocol.DefaultMaxFrame, which holds only for the hello itself.
func TestClientUsesAnnouncedFrameCap(t *testing.T) {
	ln := fakeStatsServer(t, 8<<20, func(nc net.Conn, req *protocol.Request) {
		reply(nc, &protocol.Response{ID: req.ID, Exec: &protocol.ExecResult{
			Columns: []string{"t.sql"}, Rows: [][]string{{req.SQL}}}})
	})
	c, err := client.Dial(ln.Addr().String(), client.Options{Tenant: "t"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Hello().MaxFrame; got != 8<<20 {
		t.Fatalf("hello announced %d, want %d", got, 8<<20)
	}

	sql := "SELECT '" + strings.Repeat("x", 5<<20) + "'"
	res, err := c.Exec(context.Background(), sql)
	if err != nil {
		t.Fatalf("5 MiB exec under an 8 MiB cap: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != sql {
		t.Fatalf("the 5 MiB answer came back damaged")
	}
}

// TestClientUnencodableRequestKeepsConnection: a request the client cannot
// encode — a NaN tune knob, which JSON has no spelling for, or a workload
// over the frame cap — never reaches the wire. It fails alone with the
// encoder's error, not ErrConnLost, and the connection stays up: the next
// call is served on it without a redial.
func TestClientUnencodableRequestKeepsConnection(t *testing.T) {
	s := startServer(t, server.Config{})
	c, err := client.Dial(s.Addr().String(), client.Options{Tenant: "t"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	accepted := s.Obs().Counter("server.conns.accepted")
	if n := accepted.Value(); n != 1 {
		t.Fatalf("server.conns.accepted = %d after Dial, want 1", n)
	}

	q := []string{"SELECT * FROM orders WHERE o_orderkey > 10"}
	_, err = c.Tune(ctx, q, &protocol.TuneParams{Epsilon: math.NaN()})
	var unsupported *json.UnsupportedValueError
	if !errors.As(err, &unsupported) || errors.Is(err, client.ErrConnLost) {
		t.Fatalf("NaN knob: %v, want a json.UnsupportedValueError that is not ErrConnLost", err)
	}
	huge := []string{strings.Repeat("x", protocol.DefaultMaxFrame)}
	if _, err := c.Tune(ctx, huge, nil); !errors.Is(err, protocol.ErrFrameTooLarge) || errors.Is(err, client.ErrConnLost) {
		t.Fatalf("oversized workload: %v, want ErrFrameTooLarge that is not ErrConnLost", err)
	}
	if _, err := c.Stats(ctx); err != nil {
		t.Fatalf("call after the encode failures: %v", err)
	}
	if n := accepted.Value(); n != 1 {
		t.Fatalf("server.conns.accepted = %d, want 1: an encode failure redialled", n)
	}
}
