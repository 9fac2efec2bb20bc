// Package flight is the repository's one single-flight cache: the engine's
// build and result caches and the service's response cache are all a
// flight.Cache keyed by content. Concurrent callers of one key share one
// fill; completed values sit in an O(1) LRU bounded by entry count.
//
// The fill belongs to everyone waiting on it, not to the caller that
// happened to start it. It runs in the first caller's goroutine, under a
// context detached from that caller's cancellation, and is canceled only
// when the last waiter has left — so one client giving up never fails
// another client's request.
package flight

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// Cache is a single-flight cache of V values keyed by string.
type Cache[V any] struct {
	mu       sync.Mutex
	entries  map[string]*entry[V] // in-flight and completed
	lru      *list.List           // completed entries, most recently used at the front
	capacity int                  // 0 = unbounded

	hits, joins, misses, evictions atomic.Uint64
	m                              Metrics
}

// entry is one key's fill. ready closes once val/err are set; the fields
// below it are guarded by the cache's mutex.
type entry[V any] struct {
	key   string
	ready chan struct{}
	val   V
	err   error

	elem    *list.Element      // set once the entry completes and joins the LRU
	done    bool               // the fill has returned (or panicked)
	waiters int                // callers still waiting on the in-flight fill
	cancel  context.CancelFunc // the fill's; nil once called, so no entry keeps a caller's context
}

// Stats is a snapshot of a cache's counters. Every Do call is exactly one
// hit or one miss: a miss ran the fill, a hit did not. Joins are the hits
// that found the fill still in flight.
type Stats struct {
	Hits, Joins, Misses, Evictions uint64
}

// Metrics mirrors a cache's counters onto live instruments. Nil fields
// are valid and free.
type Metrics struct {
	Hits, Joins, Misses, Evictions *metrics.Counter
}

// New returns an empty cache holding at most capacity completed values,
// evicting the least recently used beyond it. A capacity <= 0 is
// unbounded.
func New[V any](capacity int) *Cache[V] {
	if capacity < 0 {
		capacity = 0
	}
	return &Cache[V]{entries: map[string]*entry[V]{}, lru: list.New(), capacity: capacity}
}

// SetMetrics mirrors the cache's counters onto m. Call before use.
func (c *Cache[V]) SetMetrics(m Metrics) { c.m = m }

// Outcome is how one call was served: it ran the fill (Miss), waited on a
// fill another caller was running (Joined), or found a completed value
// (Hit).
type Outcome int

const (
	Miss Outcome = iota
	Joined
	Hit
)

// String returns "miss", "joined" or "hit".
func (o Outcome) String() string {
	switch o {
	case Joined:
		return "joined"
	case Hit:
		return "hit"
	}
	return "miss"
}

// Do is Fetch reporting only whether the call did not run fill.
func (c *Cache[V]) Do(ctx context.Context, key string, fill func(context.Context) (V, error)) (v V, shared bool, err error) {
	v, o, err := c.Fetch(ctx, key, fill)
	return v, o != Miss, err
}

// Fetch returns the value cached under key, running fill on a miss, and
// how the call was served. Concurrent calls with one key run fill once
// and share its result.
//
// A caller that joined an in-flight fill returns as soon as its own ctx
// fires. The caller running the fill returns only when the fill does,
// with the fill's outcome, even if its ctx fired first. The fill's
// context is canceled only after every caller waiting on it — the one
// running it included — has left, and by then the entry is already
// unlinked, so no later caller joins a dying fill. A failed fill is not
// cached: its waiters get the error and the next caller starts afresh.
// A panicking fill hands its waiters an error and the panic continues in
// the caller that ran it.
func (c *Cache[V]) Fetch(ctx context.Context, key string, fill func(context.Context) (V, error)) (v V, o Outcome, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits.Add(1)
		c.m.Hits.Inc()
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
			c.mu.Unlock()
			return e.val, Hit, nil
		}
		c.joins.Add(1)
		c.m.Joins.Inc()
		e.waiters++
		c.mu.Unlock()
		stop := context.AfterFunc(ctx, func() { c.leave(e) })
		defer stop()
		select {
		case <-e.ready:
			return e.val, Joined, e.err
		case <-ctx.Done():
			return v, Joined, ctx.Err()
		}
	}
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	e := &entry[V]{key: key, ready: make(chan struct{}), waiters: 1, cancel: cancel}
	c.entries[key] = e
	c.misses.Add(1)
	c.m.Misses.Inc()
	c.mu.Unlock()
	stop := context.AfterFunc(ctx, func() { c.leave(e) })
	defer stop()

	finished := false
	defer func() {
		if !finished {
			var zero V
			c.finish(e, zero, fmt.Errorf("flight: fill for %q panicked", key))
		}
	}()
	v, err = fill(fctx)
	finished = true
	c.finish(e, v, err)
	return v, Miss, err
}

// leave records that one waiter of e gave up. The last one out unlinks
// the entry, then cancels the fill.
func (c *Cache[V]) leave(e *entry[V]) {
	c.mu.Lock()
	if e.done {
		c.mu.Unlock()
		return
	}
	e.waiters--
	if e.waiters > 0 {
		c.mu.Unlock()
		return
	}
	if c.entries[e.key] == e {
		delete(c.entries, e.key)
	}
	cancel := e.cancel
	e.cancel = nil
	c.mu.Unlock()
	cancel()
}

// finish publishes e's outcome and releases its waiters. A success joins
// the LRU, evicting past capacity; a failure leaves the map. Either way
// the map slot is touched only if e still owns it.
func (c *Cache[V]) finish(e *entry[V], v V, err error) {
	c.mu.Lock()
	e.val, e.err, e.done = v, err, true
	cancel := e.cancel
	e.cancel = nil
	if c.entries[e.key] == e {
		if err != nil {
			delete(c.entries, e.key)
		} else {
			e.elem = c.lru.PushFront(e)
			for c.capacity > 0 && c.lru.Len() > c.capacity {
				victim := c.lru.Remove(c.lru.Back()).(*entry[V])
				delete(c.entries, victim.key)
				c.evictions.Add(1)
				c.m.Evictions.Inc()
			}
		}
	}
	c.mu.Unlock()
	close(e.ready)
	if cancel != nil {
		cancel()
	}
}

// Stats reports the cache's counters.
func (c *Cache[V]) Stats() Stats {
	return Stats{Hits: c.hits.Load(), Joins: c.joins.Load(), Misses: c.misses.Load(), Evictions: c.evictions.Load()}
}

// Len reports the number of cached and in-flight entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
