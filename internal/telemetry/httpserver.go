package telemetry

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// The introspection server is the first concrete step toward the spacecdnd
// daemon the roadmap names: a lightweight HTTP surface over one telemetry
// bundle, serving live scrapes while a sweep is still advancing. Every
// handler reads through the bundle's concurrency-safe components, so there
// is no coordination with the experiment goroutines beyond their own atomics
// and locks.
//
// Routes:
//
//	/metrics        Prometheus text exposition (live registry)
//	/series         SeriesSnapshot JSON (the windowed series); 404 while no
//	                series collector is attached (checked per request)
//	/traces         the sampled RequestTraces as JSON, oldest first
//	/healthz        liveness probe, "ok"
//	/debug/pprof/*  net/http/pprof profiles
func Handler(t *Telemetry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// Write errors past the first byte are the client hanging up; the
		// status line is already gone, so there is nothing left to report.
		_ = t.WritePrometheus(w)
	})
	mux.HandleFunc("/series", func(w http.ResponseWriter, r *http.Request) {
		if t.Series() == nil {
			http.NotFound(w, r)
			return
		}
		if d := scrapeDelay; d != nil {
			d()
		}
		w.Header().Set("Content-Type", "application/json")
		_ = t.WriteSeriesJSON(w)
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = writeJSON(w, t.Traces().Traces())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// scrapeDelay, when non-nil, runs at the start of every /series scrape.
// It exists for the graceful-shutdown test, which needs a scrape provably
// in flight when Close begins draining; production code never sets it.
var scrapeDelay func()

// drainTimeout bounds how long Close waits for in-flight scrapes. A scrape
// is a bounded render of in-memory state, so anything still running after
// this long is a stuck client and gets cut off.
const drainTimeout = 5 * time.Second

// Server is a running introspection endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server

	mu     sync.Mutex
	closed bool
}

// Serve starts an introspection server on addr (pass host:0 to let the
// kernel pick a port; Addr reports the bound address). The server runs until
// Close.
func Serve(addr string, t *Telemetry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: introspection listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: Handler(t)}}
	go func() {
		// ErrServerClosed (and the listener-closed error) is the normal
		// shutdown path; anything else has nowhere better to go than stderr
		// via the server's default error logging, which http.Server already
		// does before Serve returns.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the server's bound address, e.g. "127.0.0.1:9090".
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the server gracefully: the listener closes immediately (no
// new scrapes), in-flight requests — a /series render mid-write, a pprof
// profile still streaming — run to completion, and only a drain exceeding
// drainTimeout is cut off. Idempotent.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	return s.srv.Shutdown(ctx)
}
