// Package client is the Go client for the stats-as-a-service daemon
// (cmd/autostatsd): one TCP connection speaking the length-prefixed JSON
// protocol of internal/protocol, safe for concurrent use.
//
// Calls are pipelined: any number of goroutines may have requests
// outstanding on the one connection; a background reader goroutine pairs
// responses to waiters by request ID, so a slow tune does not block a fast
// exec issued after it. When the connection dies (server restart, network
// fault), every waiter fails promptly with the transport error, and the
// next call redials, up to five connect attempts spaced 10, 20, 40 and 80 ms
// apart, before giving up.
//
// Frames are read with protocol.FrameReader, the server's reader too, and
// capped in both directions at the frame size the server announces in its
// hello. A request that cannot be encoded (a NaN knob, a frame over that cap)
// fails alone with the encoder's error; it never reached the wire, so the
// connection and the calls pipelined on it are untouched. Results are the
// wire's messages, which are also the facade's types: an Exec answer is the
// autostats.QueryResult the same statement returns in-process.
//
// Server backpressure surfaces as errors the caller can classify:
// errors.Is(err, protocol.ErrOverloaded) for admission-control fast-fails
// and errors.Is(err, protocol.ErrDraining) for a server shutting down.
package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"autostats/internal/protocol"
)

// ErrClosed reports a call on a client after Close.
var ErrClosed = errors.New("client: closed")

// ErrConnLost reports that the connection died while the request was in
// flight. The server may or may not have executed it — callers decide
// whether to retry based on the operation's idempotence. The client itself
// only ever auto-retries read-only calls (Explain, Stats, Metrics); Exec,
// Tune, and Maintain are never silently replayed.
var ErrConnLost = errors.New("client: connection lost with request in flight")

// Options configures Dial. The zero value works against a default server.
type Options struct {
	// Tenant is announced in the hello handshake and becomes the default
	// tenant for every call. Calls cannot override it; use one client per
	// tenant (they are cheap — one goroutine and one socket each).
	Tenant string
	// DialTimeout bounds each TCP connect attempt (default 5s).
	DialTimeout time.Duration
	// HelloTimeout bounds the synchronous hello handshake that follows the
	// TCP connect (default: DialTimeout). It is what keeps Dial from hanging
	// against a listener that accepts connections but never reads — a wedged
	// or half-dead server fails Dial within the timeout instead of blocking
	// the caller indefinitely.
	HelloTimeout time.Duration
	// RequestTimeout, when > 0, bounds every call whose context carries no
	// deadline of its own. A caller-supplied deadline always wins.
	RequestTimeout time.Duration
}

// redialBackoff is the pause before each connect attempt after the first, so
// one call makes at most len(redialBackoff)+1 attempts.
var redialBackoff = [...]time.Duration{
	10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond, 80 * time.Millisecond,
}

func (o *Options) fill() {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.HelloTimeout <= 0 {
		o.HelloTimeout = o.DialTimeout
	}
}

// Client is one pipelined connection to an autostatsd server.
type Client struct {
	addr string
	opts Options

	nextID atomic.Uint64
	closed atomic.Bool

	// mu guards the live connection and the redial path.
	mu   sync.Mutex
	conn *liveConn

	// Hello is the server's handshake from the most recent (re)connect.
	helloMu sync.Mutex
	hello   protocol.HelloResult
}

// liveConn is one established connection generation: writes serialize on
// wmu; the reader goroutine owns the read side and fails all pending waiters
// when the connection dies. Frames in both directions are capped at the
// maxFrame the server announced in its hello.
type liveConn struct {
	nc       net.Conn
	maxFrame int
	wmu      sync.Mutex

	pmu     sync.Mutex
	pending map[uint64]chan *protocol.Response
	err     error // set before dead is closed
	dead    chan struct{}
}

// Dial connects, performs the hello handshake, and returns a ready client.
func Dial(addr string, opts Options) (*Client, error) {
	opts.fill()
	c := &Client{addr: addr, opts: opts}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.connectLocked(context.Background()); err != nil {
		return nil, err
	}
	return c, nil
}

// Hello returns the server handshake of the current connection generation.
func (c *Client) Hello() protocol.HelloResult {
	c.helloMu.Lock()
	defer c.helloMu.Unlock()
	return c.hello
}

// Close tears down the connection; all pending and future calls fail.
func (c *Client) Close() error {
	c.closed.Store(true)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		c.conn.fail(ErrClosed)
		c.conn = nil
	}
	return nil
}

// connectLocked dials and handshakes with backoff; c.mu must be held.
func (c *Client) connectLocked(ctx context.Context) (*liveConn, error) {
	var lastErr error
	for attempt := 0; attempt <= len(redialBackoff); attempt++ {
		if attempt > 0 {
			t := time.NewTimer(redialBackoff[attempt-1])
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, fmt.Errorf("client: connect %s: %w", c.addr, ctx.Err())
			}
		}
		if c.closed.Load() {
			return nil, ErrClosed
		}
		lc, hello, err := c.dialOnce(ctx)
		if err == nil {
			c.conn = lc
			c.helloMu.Lock()
			c.hello = *hello
			c.helloMu.Unlock()
			return lc, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("client: connect %s: %w", c.addr, lastErr)
}

func (c *Client) dialOnce(ctx context.Context) (*liveConn, *protocol.HelloResult, error) {
	d := net.Dialer{Timeout: c.opts.DialTimeout}
	nc, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, nil, err
	}
	// Synchronous hello before the reader starts: a version-mismatched or
	// impostor server fails Dial, not the first real call. The deadline is
	// what bounds the handshake against an accept-and-stall listener. The
	// server's frame cap is unknown until its hello arrives, so the hello
	// exchange itself is held to DefaultMaxFrame.
	hreq := &protocol.Request{ID: c.nextID.Add(1), Op: protocol.OpHello,
		Version: protocol.Version, Tenant: c.opts.Tenant}
	nc.SetDeadline(time.Now().Add(c.opts.HelloTimeout))
	frame, err := protocol.EncodeFrame(hreq, protocol.DefaultMaxFrame)
	if err == nil {
		_, err = nc.Write(frame)
	}
	var hresp *protocol.Response
	if err == nil {
		var payload []byte
		if payload, err = protocol.NewFrameReader(nc, protocol.DefaultMaxFrame).Next(); err == nil {
			hresp, err = protocol.DecodeResponse(payload)
		}
	}
	switch {
	case err != nil:
		err = fmt.Errorf("hello: %w", err)
	case hresp.Err() != nil:
		err = fmt.Errorf("hello rejected: %w", hresp.Err())
	case hresp.Hello == nil:
		err = errors.New("hello response missing handshake")
	}
	if err != nil {
		nc.Close()
		return nil, nil, err
	}
	nc.SetDeadline(time.Time{})
	lc := &liveConn{
		nc:       nc,
		maxFrame: hresp.Hello.MaxFrame,
		pending:  make(map[uint64]chan *protocol.Response),
		dead:     make(chan struct{}),
	}
	// The server sends nothing before the next request, so the hello's
	// reader had nothing buffered past the hello for this one to miss.
	go lc.readLoop(protocol.NewFrameReader(nc, lc.maxFrame))
	return lc, hresp.Hello, nil
}

// readLoop pairs responses to waiters by ID until the connection dies.
func (lc *liveConn) readLoop(fr *protocol.FrameReader) {
	for {
		var resp *protocol.Response
		payload, err := fr.Next()
		if err == nil {
			// DecodeResponse copies what it keeps, so the next frame may
			// overwrite payload.
			resp, err = protocol.DecodeResponse(payload)
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = fmt.Errorf("client: connection closed by server: %w", err)
			}
			lc.fail(err)
			return
		}
		lc.pmu.Lock()
		ch := lc.pending[resp.ID]
		delete(lc.pending, resp.ID)
		lc.pmu.Unlock()
		if ch != nil {
			ch <- resp // buffered; never blocks
		}
	}
}

// fail marks the connection dead with err and wakes every waiter.
func (lc *liveConn) fail(err error) {
	lc.pmu.Lock()
	if lc.err == nil {
		lc.err = err
		close(lc.dead)
	}
	lc.pmu.Unlock()
	lc.nc.Close()
}

func (lc *liveConn) deadErr() error {
	lc.pmu.Lock()
	defer lc.pmu.Unlock()
	return lc.err
}

// register adds a waiter channel for id (buffered so the reader never blocks).
func (lc *liveConn) register(id uint64) chan *protocol.Response {
	ch := make(chan *protocol.Response, 1)
	lc.pmu.Lock()
	lc.pending[id] = ch
	lc.pmu.Unlock()
	return ch
}

func (lc *liveConn) unregister(id uint64) {
	lc.pmu.Lock()
	delete(lc.pending, id)
	lc.pmu.Unlock()
}

// getConn returns the live connection, redialing if the previous one died.
func (c *Client) getConn(ctx context.Context) (*liveConn, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return nil, ErrClosed
	}
	if lc := c.conn; lc != nil && lc.deadErr() == nil {
		return lc, nil
	}
	c.conn = nil
	return c.connectLocked(ctx)
}

// do performs one pipelined round trip.
func (c *Client) do(ctx context.Context, req *protocol.Request) (*protocol.Response, error) {
	if c.opts.RequestTimeout > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, c.opts.RequestTimeout)
			defer cancel()
		}
	}
	lc, err := c.getConn(ctx)
	if err != nil {
		return nil, err
	}
	req.ID = c.nextID.Add(1)
	// A request that cannot be encoded — a NaN knob, a frame over the cap —
	// never reached the wire: it fails alone and the connection, with every
	// call pipelined on it, is untouched.
	frame, err := protocol.EncodeFrame(req, lc.maxFrame)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	ch := lc.register(req.ID)

	lc.wmu.Lock()
	_, werr := lc.nc.Write(frame)
	lc.wmu.Unlock()
	if werr != nil {
		lc.unregister(req.ID)
		lc.fail(fmt.Errorf("client: write: %w", werr))
		// A failed write may still have put bytes on the wire; classify it as
		// in-flight loss so retry policy stays conservative.
		return nil, fmt.Errorf("%w: write: %v", ErrConnLost, werr)
	}

	select {
	case resp := <-ch:
		if err := resp.Err(); err != nil {
			return nil, err
		}
		return resp, nil
	case <-lc.dead:
		// The reader may have delivered our response in the same instant the
		// connection died; prefer the response.
		select {
		case resp := <-ch:
			if err := resp.Err(); err != nil {
				return nil, err
			}
			return resp, nil
		default:
		}
		lc.unregister(req.ID)
		derr := lc.deadErr()
		if errors.Is(derr, ErrClosed) {
			return nil, derr
		}
		return nil, fmt.Errorf("%w: %w", ErrConnLost, derr)
	case <-ctx.Done():
		lc.unregister(req.ID)
		return nil, ctx.Err()
	}
}

// doIdempotent is do plus one transparent retry on a fresh connection when
// the first attempt dies mid-flight. Only read-only operations (Explain,
// Stats, Metrics) route through here: re-running them changes nothing on
// the server, so replaying after an ambiguous failure is safe. Mutating
// operations call do directly and surface ErrConnLost to the caller.
func (c *Client) doIdempotent(ctx context.Context, req *protocol.Request) (*protocol.Response, error) {
	resp, err := c.do(ctx, req)
	if err == nil || !errors.Is(err, ErrConnLost) || c.closed.Load() {
		return resp, err
	}
	if ctx.Err() != nil {
		return nil, err
	}
	return c.do(ctx, req)
}

// Exec runs one SQL statement (query or DML) on the client's tenant.
// Never auto-retried: a connection lost mid-flight fails with ErrConnLost
// and the caller decides whether re-running the statement is safe.
//
// The cells of the result share memory (see protocol.ExecResult.Rows): they
// are substrings of one copy of the response, so strings.Clone a cell that
// is kept after the result is dropped.
func (c *Client) Exec(ctx context.Context, sql string) (*protocol.ExecResult, error) {
	resp, err := c.do(ctx, &protocol.Request{Op: protocol.OpExec, SQL: sql})
	if err != nil {
		return nil, err
	}
	if resp.Exec == nil {
		return nil, errors.New("client: exec response missing result")
	}
	return resp.Exec, nil
}

// Explain optimizes one SELECT and returns the pretty-printed plan.
// Read-only: retried once on a fresh connection if the first attempt is
// lost mid-flight.
func (c *Client) Explain(ctx context.Context, sql string) (string, error) {
	resp, err := c.doIdempotent(ctx, &protocol.Request{Op: protocol.OpExplain, SQL: sql})
	if err != nil {
		return "", err
	}
	return resp.Plan, nil
}

// Tune runs the statistics tuner over a workload of SELECTs.
func (c *Client) Tune(ctx context.Context, sqls []string, opts *protocol.TuneParams) (*protocol.TuneResult, error) {
	resp, err := c.do(ctx, &protocol.Request{Op: protocol.OpTune, SQLs: sqls, Tune: opts})
	if err != nil {
		return nil, err
	}
	if resp.Tune == nil {
		return nil, errors.New("client: tune response missing result")
	}
	return resp.Tune, nil
}

// Stats lists the tenant's statistics. Read-only: retried once on a fresh
// connection if the first attempt is lost mid-flight.
func (c *Client) Stats(ctx context.Context) ([]protocol.StatRow, error) {
	resp, err := c.doIdempotent(ctx, &protocol.Request{Op: protocol.OpStats})
	if err != nil {
		return nil, err
	}
	return resp.Stats, nil
}

// Maintain runs one maintenance pass on the tenant.
func (c *Client) Maintain(ctx context.Context) (*protocol.MaintResult, error) {
	resp, err := c.do(ctx, &protocol.Request{Op: protocol.OpMaintain})
	if err != nil {
		return nil, err
	}
	if resp.Maintain == nil {
		return nil, errors.New("client: maintain response missing result")
	}
	return resp.Maintain, nil
}

// Metrics fetches the server's metric registry as text lines. Read-only:
// retried once on a fresh connection if the first attempt is lost mid-flight.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	resp, err := c.doIdempotent(ctx, &protocol.Request{Op: protocol.OpMetrics})
	if err != nil {
		return "", err
	}
	return resp.Metrics, nil
}
