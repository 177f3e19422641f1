package server

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"autostats/internal/obs"
)

func metricsRegistry() *obs.Registry {
	reg := obs.New()
	reg.Counter("server.requests.admitted").Add(42)
	reg.Gauge("server.queue.depth").Set(3)
	reg.Timing("server.op.exec.latency").Observe(5 * time.Millisecond)
	return reg
}

func TestMetricsHandlerText(t *testing.T) {
	h := metricsHandler(metricsRegistry())
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body := rr.Body.String()
	if !strings.Contains(body, "server.requests.admitted 42") {
		t.Fatalf("text dump missing counter:\n%s", body)
	}
	if !strings.Contains(body, "server.queue.depth 3") {
		t.Fatalf("text dump missing gauge:\n%s", body)
	}
}

func TestMetricsHandlerJSON(t *testing.T) {
	h := metricsHandler(metricsRegistry())
	for _, req := range []*http.Request{
		httptest.NewRequest(http.MethodGet, "/?format=json", nil),
		func() *http.Request {
			r := httptest.NewRequest(http.MethodGet, "/", nil)
			r.Header.Set("Accept", "application/json")
			return r
		}(),
	} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code != http.StatusOK {
			t.Fatalf("status %d", rr.Code)
		}
		if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("content type %q", ct)
		}
		var snap obs.Snapshot
		if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
			t.Fatalf("bad JSON: %v\n%s", err, rr.Body.String())
		}
		if snap.Counters["server.requests.admitted"] != 42 {
			t.Fatalf("counter lost in snapshot: %+v", snap.Counters)
		}
		if snap.Timings["server.op.exec.latency"].Count != 1 {
			t.Fatalf("timing lost in snapshot: %+v", snap.Timings)
		}
	}
}

func TestMetricsHandlerMethodNotAllowed(t *testing.T) {
	h := metricsHandler(metricsRegistry())
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/", strings.NewReader("x")))
	if rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", rr.Code)
	}
}

func TestServeMetricsEndToEnd(t *testing.T) {
	addr, stop, err := ServeOps("127.0.0.1:0", metricsRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// TestServeOpsClosesStalledHeader: a peer that sends part of a request
// header and then stalls is closed by the ops listener once the header
// deadline passes, instead of holding the connection open indefinitely.
func TestServeOpsClosesStalledHeader(t *testing.T) {
	defer func(d time.Duration) { opsReadHeaderTimeout = d }(opsReadHeaderTimeout)
	opsReadHeaderTimeout = 100 * time.Millisecond
	addr, stop, err := ServeOps("127.0.0.1:0", metricsRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("connection with a stalled header still open after 5s")
	}
}
