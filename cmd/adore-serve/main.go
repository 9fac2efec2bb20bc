// adore-serve runs the simulator as a long-lived service: the experiment
// engine behind an HTTP/JSON API, with a response cache.
//
// Usage:
//
//	adore-serve [-addr :8124] [-j 0] [-grace 30s]
//
// Endpoints:
//
//	POST /run           one simulation by value; see internal/serve.RunRequest
//	POST /sweep         one workload across policy columns, fork-grouped
//	GET  /status        per-sweep job progress
//	GET  /metrics       Prometheus text exposition (?format=json for JSON)
//	GET  /healthz       liveness
//	GET  /debug/pprof/  the Go runtime's profiler, for the service itself
//
// Responses are cached by request fingerprint in one LRU cache of at most
// 1024 bodies, the only copy the service keeps of an answer; a hit is
// byte-identical to the cold response, with the disposition in the
// X-Adore-Cache header. Concurrent identical requests share one
// simulation, which runs until the last of their clients disconnects. All
// requests share the engine's worker pool, so at most -j simulations run
// at once. SIGTERM/SIGINT drain gracefully: in-flight requests get
// -grace to finish, and a clean drain exits 0 (so supervisors and CI can
// tell a graceful stop from a crash).
// See DESIGN.md §17.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"repro/cmd/internal/cli"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8124", "listen address")
	jobs := flag.Int("j", 0, "engine worker-pool width (0 = one per core)")
	grace := flag.Duration("grace", 30*time.Second, "shutdown grace for in-flight requests")
	flag.Parse()

	ln, err := net.Listen("tcp", *addr)
	cli.Fatal(err)

	srv := serve.New(serve.Config{Parallelism: *jobs})

	ctx := cli.Context()
	fmt.Fprintf(os.Stderr, "adore-serve: listening on http://%s\n", ln.Addr())

	// A graceful SIGTERM drain is a SUCCESS for a server (unlike an
	// interrupted batch sweep), so a clean ListenAndServe return exits 0
	// rather than taking cli.Fatal's canceled-means-130 path.
	err = serve.ListenAndServe(ctx, serve.Hardened(srv.Handler()), ln, *grace)
	if err != nil {
		cli.Fatal(fmt.Errorf("adore-serve: %w", err))
	}
	hits, misses, evictions := srv.Cache().Stats()
	fmt.Fprintf(os.Stderr, "adore-serve: drained; cache %d hits / %d misses / %d evictions\n",
		hits, misses, evictions)
}
