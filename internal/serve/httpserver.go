package serve

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/metrics"
)

// ObservabilityMux returns a mux serving the process's observability
// surface — the one both adore-serve and adore-bench -metrics-addr expose:
//
//	/metrics       Prometheus text exposition of reg (?format=json for JSON)
//	/status        per-sweep job progress as JSON
//	/debug/pprof/  the Go runtime's profiler, for the host process itself
//
// The pprof handlers normally self-register on http.DefaultServeMux at
// import; wiring them here keeps the mux self-contained. Callers add their
// own routes to the returned mux.
func ObservabilityMux(reg *metrics.Registry, status *StatusTracker) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.Handler(reg))
	mux.Handle("/status", status)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Hardened wraps a handler in an http.Server with the timeouts a
// long-running service must set: without ReadHeaderTimeout/ReadTimeout a
// client that dribbles its request a byte at a time (Slowloris) pins a
// connection — and its goroutine — forever. WriteTimeout stays generous
// because a cold sweep legitimately takes minutes; the read-side limits
// are what keep an idle attacker from holding sockets.
func Hardened(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      10 * time.Minute,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
}

// ListenAndServe runs srv on ln until ctx fires, then shuts it down
// gracefully: in-flight requests get until grace to finish before the
// server is closed hard. A Serve error other than the expected
// ErrServerClosed is returned (the old fire-and-forget `go srv.Serve(ln)`
// silently discarded e.g. an fd exhaustion error and left the process
// looking healthy with a dead listener).
func ListenAndServe(ctx context.Context, srv *http.Server, ln net.Listener, grace time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		// Grace expired with requests still in flight; close them hard.
		srv.Close()
		return err
	}
	return nil
}
