package server

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"autostats/internal/obs"
)

// metricsHandler serves a registry over HTTP — the optional -metrics-addr
// endpoint of cmd/autostatsd. GET / returns the expvar-style "name value"
// text dump; GET /?format=json (or an Accept header preferring
// application/json) returns the full structured obs.Snapshot, timings and
// histograms included.
func metricsHandler(reg *obs.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if wantJSON(r) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(reg.Snapshot()); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := reg.WriteText(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

func wantJSON(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "json":
		return true
	case "text":
		return false
	}
	return strings.Contains(r.Header.Get("Accept"), "application/json")
}

// opsHandler serves the metrics registry plus the health probes:
//
//	GET /healthz  — 200 while the process is alive (liveness)
//	GET /readyz   — 200 once ready() is true, 503 otherwise (readiness:
//	                listening and not draining); orchestrators and the
//	                CI server-smoke job's readiness loop poll this
//	GET /         — the metrics registry (text, or ?format=json)
func opsHandler(reg *obs.Registry, ready func() bool) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if ready != nil && !ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "not ready")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.Handle("/", metricsHandler(reg))
	return mux
}

// The ops listener's deadlines, the HTTP counterpart of the daemon's
// ReadTimeout: a peer that stalls mid-header is closed after
// opsReadHeaderTimeout, and an idle keep-alive connection after
// opsIdleTimeout. opsReadHeaderTimeout is a variable only so tests can
// shorten it.
var opsReadHeaderTimeout = 10 * time.Second

const opsIdleTimeout = 2 * time.Minute

// ServeOps starts an HTTP server for the ops surface (metrics + health
// probes) on addr and returns its bound address and a shutdown func.
func ServeOps(addr string, reg *obs.Registry, ready func() bool) (string, func() error, error) {
	srv := &http.Server{
		Handler:           opsHandler(reg, ready),
		ReadHeaderTimeout: opsReadHeaderTimeout,
		IdleTimeout:       opsIdleTimeout,
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	go srv.Serve(ln)
	return ln.Addr().String(), srv.Close, nil
}
