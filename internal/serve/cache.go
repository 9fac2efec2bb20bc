package serve

import (
	"context"
	"hash/fnv"

	"repro/internal/flight"
	"repro/internal/metrics"
)

// The response cache: keys are request fingerprints (sha256 over the
// normalized request document — see request.go), values are fully
// marshaled response bodies, so a cache hit is served byte-identical to
// the cold run that filled it, with zero re-marshaling. The fingerprint
// prefix picks the shard; each shard is an independently locked, bounded,
// single-flight flight.Cache, so concurrent identical requests share one
// simulation, and one client disconnecting never fails another's.

// CacheConfig sizes the sharded response cache.
type CacheConfig struct {
	// Shards is the shard count, rounded up to a power of two (so the
	// fingerprint prefix maps onto shards with a mask). Default 8.
	Shards int
	// ShardCap bounds each shard's completed entries (LRU eviction past
	// it). Default 128.
	ShardCap int
}

// ShardedCache routes request fingerprints onto flight caches of
// response bodies by fingerprint prefix.
type ShardedCache struct {
	shards []*flight.Cache[[]byte]
	mask   uint64
}

// NewShardedCache builds the cache and registers its aggregate counters
// on reg (nil runs unmetered for free).
func NewShardedCache(cfg CacheConfig, reg *metrics.Registry) *ShardedCache {
	want := cfg.Shards
	if want <= 0 {
		want = 8
	}
	n := 1
	for n < want {
		n <<= 1
	}
	capacity := cfg.ShardCap
	if capacity <= 0 {
		capacity = 128
	}
	m := flight.Metrics{
		Hits:      reg.Counter("adore_serve_cache_hits_total", "requests served from the sharded response cache (incl. in-flight joins)"),
		Joins:     reg.Counter("adore_serve_cache_joins_total", "requests that joined an in-flight simulation (a subset of hits)"),
		Misses:    reg.Counter("adore_serve_cache_misses_total", "requests that ran a simulation"),
		Evictions: reg.Counter("adore_serve_cache_evictions_total", "completed responses dropped by shard LRU bounds"),
	}
	c := &ShardedCache{shards: make([]*flight.Cache[[]byte], n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i] = flight.New[[]byte](capacity)
		c.shards[i].SetMetrics(m)
	}
	return c
}

// Shards reports the shard count.
func (c *ShardedCache) Shards() int { return len(c.shards) }

// ShardFor maps a fingerprint to its shard index by prefix: the leading
// hex digits select the shard, so the keyspace spreads uniformly (the
// fingerprint is a cryptographic hash). Non-hex keys fall back to FNV.
func (c *ShardedCache) ShardFor(key string) int {
	var v uint64
	n := 0
	for ; n < len(key) && n < 8; n++ {
		d := hexVal(key[n])
		if d < 0 {
			break
		}
		v = v<<4 | uint64(d)
	}
	if n == 0 {
		h := fnv.New64a()
		h.Write([]byte(key))
		v = h.Sum64()
	}
	return int(v & c.mask)
}

func hexVal(b byte) int {
	switch {
	case b >= '0' && b <= '9':
		return int(b - '0')
	case b >= 'a' && b <= 'f':
		return int(b-'a') + 10
	case b >= 'A' && b <= 'F':
		return int(b-'A') + 10
	}
	return -1
}

// Do returns the body cached under key, filling it with fill on a miss;
// hit reports whether THIS call was served without running fill. The
// semantics are flight.Cache.Do's: concurrent identical keys share one
// fill, which runs until its last waiter leaves.
func (c *ShardedCache) Do(ctx context.Context, key string, fill func(context.Context) ([]byte, error)) (body []byte, hit bool, err error) {
	return c.shards[c.ShardFor(key)].Do(ctx, key, fill)
}

// Stats reports the aggregate cache effectiveness across shards; hits
// include in-flight joins.
func (c *ShardedCache) Stats() (hits, misses, evictions uint64) {
	for _, s := range c.shards {
		st := s.Stats()
		hits += st.Hits
		misses += st.Misses
		evictions += st.Evictions
	}
	return hits, misses, evictions
}
