package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/serve"
)

// serveMetrics starts the -metrics-addr endpoint (serve.ObservabilityMux:
// /metrics, /status, /debug/pprof/), so a long sweep can be watched and the
// host process profiled without interrupting it. The listener is bound
// synchronously so the endpoint is scrapeable — and its address printed —
// before any sweep starts. The returned shutdown func waits out -linger
// (for scrapers that poll; cut short if ctx fires), then drains the server
// through serve.ListenAndServe.
func serveMetrics(ctx context.Context, addr string, reg *metrics.Registry, status *serve.StatusTracker, linger time.Duration) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-metrics-addr %s: %w", addr, err)
	}
	srvCtx, stop := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv := serve.Hardened(serve.ObservabilityMux(reg, status))
		if err := serve.ListenAndServe(srvCtx, srv, ln, 5*time.Second); err != nil {
			fmt.Fprintf(os.Stderr, "warning: -metrics-addr endpoint: %v\n", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "serving /metrics, /status, /debug/pprof on http://%s\n", ln.Addr())

	return func() {
		if linger > 0 {
			fmt.Fprintf(os.Stderr, "sweeps done; serving for another %v (-linger)\n", linger)
			select {
			case <-time.After(linger):
			case <-ctx.Done():
				// ^C during the linger: stop waiting, start draining.
			}
		}
		stop()
		<-done
	}, nil
}

// reportDrops surfaces the engine's loss signals on stderr. Nonzero drops
// mean a recorded stream is incomplete — loud, but not fatal: the
// simulated results themselves are unaffected.
func reportDrops(eng *harness.Engine) (obsDropped, samplesDropped uint64) {
	obsDropped, samplesDropped = eng.Drops()
	if obsDropped > 0 {
		fmt.Fprintf(os.Stderr, "warning: %d observability events dropped (ring overwrites); raise ObserveCapacity\n", obsDropped)
	}
	if samplesDropped > 0 {
		fmt.Fprintf(os.Stderr, "warning: %d PMU samples dropped (unhandled SSB overflows)\n", samplesDropped)
	}
	return obsDropped, samplesDropped
}
