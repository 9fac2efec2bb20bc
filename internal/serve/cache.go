package serve

import (
	"repro/internal/flight"
	"repro/internal/metrics"
)

// The response cache: keys are request fingerprints (sha256 over the
// normalized request document — see request.go), values are fully
// marshaled response bodies, so a cache hit is served byte-identical to
// the cold run that filled it, with zero re-marshaling. It is one bounded,
// single-flight flight.Cache, so concurrent identical requests share one
// simulation, and one client disconnecting never fails another's. It is
// the only place the service keeps an answer: the engine behind it runs
// without a result cache.

// responseCacheCap bounds the completed responses the cache holds; the
// least recently used is evicted past it.
const responseCacheCap = 1024

// ResponseCache is the service's cache of marshaled response bodies. Do,
// Len and the rest are flight.Cache's.
type ResponseCache struct {
	*flight.Cache[[]byte]
}

// newResponseCache builds a cache of at most capacity bodies and
// registers its counters on reg (nil runs unmetered for free).
func newResponseCache(reg *metrics.Registry, capacity int) ResponseCache {
	c := flight.New[[]byte](capacity)
	c.SetMetrics(flight.Metrics{
		Hits:      reg.Counter("adore_serve_cache_hits_total", "requests served from the response cache (incl. in-flight joins)"),
		Joins:     reg.Counter("adore_serve_cache_joins_total", "requests that joined an in-flight simulation (a subset of hits)"),
		Misses:    reg.Counter("adore_serve_cache_misses_total", "requests that ran a simulation"),
		Evictions: reg.Counter("adore_serve_cache_evictions_total", "completed responses dropped by the cache's LRU bound"),
	})
	return ResponseCache{c}
}

// Stats reports the cache's effectiveness; hits include in-flight joins.
func (c ResponseCache) Stats() (hits, misses, evictions uint64) {
	s := c.Cache.Stats()
	return s.Hits, s.Misses, s.Evictions
}
