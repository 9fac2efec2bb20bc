// adore-serve runs the simulator as a long-lived service: the experiment
// engine behind an HTTP/JSON API, with a sharded response cache.
//
// Usage:
//
//	adore-serve [-addr :8124] [-j 0] [-shards 8] [-shard-cap 128]
//	            [-result-cap 1024] [-grace 30s]
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
// Responses are cached by request fingerprint in a sharded bounded-LRU
// cache; a hit is byte-identical to the cold response, with the
// disposition in the X-Adore-Cache header. Concurrent identical requests
// share one simulation, which runs until the last of their clients
// disconnects. All requests share the engine's worker pool, so at most
// -j simulations run at once. SIGTERM/SIGINT drain
// gracefully: in-flight requests get -grace to finish, and a clean drain
// exits 0 (so supervisors and CI can tell a graceful stop from a crash).
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
	shards := flag.Int("shards", 8, "response-cache shard count (rounded up to a power of two)")
	shardCap := flag.Int("shard-cap", 128, "max completed responses per shard (LRU eviction past it)")
	grace := flag.Duration("grace", 30*time.Second, "shutdown grace for in-flight requests")
	resultCap := flag.Int("result-cap", 1024, "engine result-cache bound (entries)")
	flag.Parse()

	ln, err := net.Listen("tcp", *addr)
	cli.Fatal(err)

	srv := serve.New(serve.Config{
		Parallelism:     *jobs,
		Shards:          *shards,
		ShardCap:        *shardCap,
		EngineResultCap: *resultCap,
	})

	ctx := cli.Context()
	fmt.Fprintf(os.Stderr, "adore-serve: listening on http://%s (%d shards, cap %d)\n",
		ln.Addr(), srv.Cache().Shards(), *shardCap)

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
