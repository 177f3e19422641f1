// Package chaos provides a deterministic fault-injecting TCP proxy for
// network-robustness testing of the stats server and client.
//
// The proxy sits between a client and a real listener and perturbs the byte
// streams flowing through it: added latency, torn frames (a random prefix of
// a chunk followed by a reset), hard mid-stream resets, byte corruption, and
// small chunks that split frames across many writes. Every random decision
// comes from a seeded generator — one stream per connection per direction,
// derived from (seed, connection index, direction) — so a failing run
// replays exactly from its seed.
//
// The chaos sweep in internal/oracle drives a real server through this proxy
// and asserts the PR 8 invariants: every client-visible failure is a typed
// protocol error or a prompt transport error (never a hang), the server
// leaks no goroutines, and the drain arithmetic still balances.
package chaos

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Config sets the fault mix. The zero value is a transparent proxy.
// Probabilities are evaluated per forwarded chunk, per direction.
type Config struct {
	// Seed drives every random decision; the same seed and traffic produce
	// the same faults.
	Seed int64
	// Latency is added before each forwarded chunk; Jitter adds a uniform
	// random extra in [0, Jitter).
	Latency time.Duration
	Jitter  time.Duration
	// ChunkSize caps bytes forwarded per read (default 4096). Values smaller
	// than a frame tear writes across many TCP segments, exercising partial
	// and torn frame handling in the peer's reader.
	ChunkSize int
	// CorruptProb flips one byte of the chunk (XOR 0xff) — wire corruption
	// the JSON decoder or length prefix check must reject.
	CorruptProb float64
	// TearProb forwards only a random strict prefix of the chunk and then
	// resets the connection: a frame torn mid-payload.
	TearProb float64
	// ResetProb drops the chunk and resets the connection immediately — the
	// peer vanishes without a FIN (SO_LINGER 0 sends an RST where the stack
	// supports it).
	ResetProb float64
}

func (c *Config) fill() {
	if c.ChunkSize <= 0 {
		c.ChunkSize = 4096
	}
}

// Stats counts the faults the proxy has injected.
type Stats struct {
	Accepted  int64 // connections accepted
	DialFails int64 // upstream dials that failed
	Resets    int64 // hard resets injected
	Torn      int64 // torn frames injected
	Corrupted int64 // chunks with a corrupted byte
	BytesIn   int64 // client→server bytes forwarded
	BytesOut  int64 // server→client bytes forwarded
}

// Proxy is a fault-injecting TCP forwarder. Create with New, point clients
// at Addr(), Close when done.
type Proxy struct {
	target string
	cfg    Config
	ln     net.Listener

	connSeq atomic.Int64
	closed  atomic.Bool
	done    chan struct{}
	wg      sync.WaitGroup

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	accepted, dialFails, resets, torn, corrupted atomic.Int64
	bytesIn, bytesOut                            atomic.Int64
}

// New starts a proxy on a fresh loopback port forwarding to target.
func New(target string, cfg Config) (*Proxy, error) {
	cfg.fill()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaos: listen: %w", err)
	}
	p := &Proxy{
		target: target,
		cfg:    cfg,
		ln:     ln,
		done:   make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the address clients should dial.
func (p *Proxy) Addr() net.Addr { return p.ln.Addr() }

// Stats snapshots the fault counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Accepted:  p.accepted.Load(),
		DialFails: p.dialFails.Load(),
		Resets:    p.resets.Load(),
		Torn:      p.torn.Load(),
		Corrupted: p.corrupted.Load(),
		BytesIn:   p.bytesIn.Load(),
		BytesOut:  p.bytesOut.Load(),
	}
}

// Close stops accepting, severs every proxied connection, and waits for the
// pump goroutines to exit.
func (p *Proxy) Close() error {
	if !p.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(p.done)
	err := p.ln.Close()
	p.mu.Lock()
	for nc := range p.conns {
		nc.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
	return err
}

func (p *Proxy) track(nc net.Conn) {
	p.mu.Lock()
	p.conns[nc] = struct{}{}
	p.mu.Unlock()
}

func (p *Proxy) untrack(nc net.Conn) {
	p.mu.Lock()
	delete(p.conns, nc)
	p.mu.Unlock()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		cl, err := p.ln.Accept()
		if err != nil {
			return
		}
		id := p.connSeq.Add(1)
		p.accepted.Add(1)
		p.wg.Add(1)
		go p.handle(cl, id)
	}
}

func (p *Proxy) handle(cl net.Conn, id int64) {
	defer p.wg.Done()
	up, err := net.DialTimeout("tcp", p.target, 5*time.Second)
	if err != nil {
		p.dialFails.Add(1)
		hardClose(cl)
		return
	}
	p.track(cl)
	p.track(up)
	defer p.untrack(cl)
	defer p.untrack(up)

	// One deterministic stream per direction: (seed, conn id, direction).
	var pumps sync.WaitGroup
	pumps.Add(2)
	go func() {
		defer pumps.Done()
		p.pump(up, cl, rand.New(rand.NewSource(p.cfg.Seed^id<<1)), &p.bytesIn)
	}()
	go func() {
		defer pumps.Done()
		p.pump(cl, up, rand.New(rand.NewSource(p.cfg.Seed^(id<<1|1))), &p.bytesOut)
	}()
	pumps.Wait()
	cl.Close()
	up.Close()
}

// pump forwards src→dst chunk by chunk, rolling the fault dice per chunk.
// Any injected reset or transport error severs BOTH directions (hardClose on
// both conns), matching how a real mid-stream failure looks to each peer.
func (p *Proxy) pump(dst, src net.Conn, rng *rand.Rand, bytes *atomic.Int64) {
	buf := make([]byte, p.cfg.ChunkSize)
	for {
		n, rerr := src.Read(buf)
		if n > 0 {
			if p.cfg.ResetProb > 0 && rng.Float64() < p.cfg.ResetProb {
				p.resets.Add(1)
				hardClose(dst)
				hardClose(src)
				return
			}
			data := buf[:n]
			tear := false
			if p.cfg.TearProb > 0 && n > 1 && rng.Float64() < p.cfg.TearProb {
				data = data[:1+rng.Intn(n-1)]
				tear = true
			}
			if p.cfg.CorruptProb > 0 && rng.Float64() < p.cfg.CorruptProb {
				data[rng.Intn(len(data))] ^= 0xff
				p.corrupted.Add(1)
			}
			if !p.delay(rng) {
				return // proxy closing
			}
			if _, werr := dst.Write(data); werr != nil {
				hardClose(src)
				return
			}
			bytes.Add(int64(len(data)))
			if tear {
				p.torn.Add(1)
				hardClose(dst)
				hardClose(src)
				return
			}
		}
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				// Graceful half-close: propagate the FIN, keep the other
				// direction alive for in-flight responses.
				if tc, ok := dst.(*net.TCPConn); ok {
					tc.CloseWrite()
				} else {
					dst.Close()
				}
			} else {
				dst.Close()
			}
			return
		}
	}
}

// delay applies latency and jitter before a chunk; it reports false when the
// proxy shut down mid-sleep.
func (p *Proxy) delay(rng *rand.Rand) bool {
	d := p.cfg.Latency
	if p.cfg.Jitter > 0 {
		d += time.Duration(rng.Int63n(int64(p.cfg.Jitter)))
	}
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-p.done:
		return false
	}
}

// hardClose resets the connection (SO_LINGER 0 → RST on TCP) so the peer
// sees an abrupt failure, not a tidy FIN.
func hardClose(nc net.Conn) {
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	nc.Close()
}
