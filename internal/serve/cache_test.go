package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

func fillWith(body string) func(context.Context) ([]byte, error) {
	return func(context.Context) ([]byte, error) { return []byte(body), nil }
}

// TestShardForPrefix pins the fingerprint-prefix shard mapping: the
// leading hex digits select the shard via the low mask bits.
func TestShardForPrefix(t *testing.T) {
	c := NewShardedCache(CacheConfig{Shards: 8, ShardCap: 4}, nil)
	if got := c.Shards(); got != 8 {
		t.Fatalf("Shards() = %d, want 8", got)
	}
	cases := map[string]int{
		"00000000ffff": 0,
		"00000005ffff": 5,
		"0000000fffff": 7, // 0xf & 7
		"deadbeef0000": int(0xdeadbeef & 7),
	}
	for key, want := range cases {
		if got := c.ShardFor(key); got != want {
			t.Errorf("ShardFor(%q) = %d, want %d", key, got, want)
		}
	}
	// Non-hex keys must still land somewhere in range (FNV fallback).
	if got := c.ShardFor("zzz"); got < 0 || got >= 8 {
		t.Errorf("ShardFor(non-hex) = %d, out of range", got)
	}
	// Shard count rounds up to a power of two.
	if got := NewShardedCache(CacheConfig{Shards: 5}, nil).Shards(); got != 8 {
		t.Errorf("Shards(5 requested) = %d, want 8", got)
	}
}

// TestCacheLRUEviction pins eviction order and counter accuracy on one
// shard: capacity 2, with a touch refreshing recency.
func TestCacheLRUEviction(t *testing.T) {
	reg := metrics.NewRegistry()
	c := NewShardedCache(CacheConfig{Shards: 1, ShardCap: 2}, reg)
	ctx := context.Background()
	runs := 0
	do := func(key string) (string, bool) {
		body, hit, err := c.Do(ctx, key, func(context.Context) ([]byte, error) {
			runs++
			return []byte("body-" + key), nil
		})
		if err != nil {
			t.Fatalf("Do(%s): %v", key, err)
		}
		return string(body), hit
	}

	do("a")
	do("b")
	do("c") // evicts a (oldest)
	if _, hit := do("b"); !hit {
		t.Fatalf("b should still be cached")
	}
	do("d") // b was just touched, so this evicts c
	if _, hit := do("c"); hit {
		t.Fatalf("c should have been evicted by d")
	}
	if _, hit := do("a"); hit {
		t.Fatalf("a should have been evicted by c")
	}
	// runs: a, b, c, d, c(again), a(again) = 6; hits: the b lookup = 1.
	if runs != 6 {
		t.Fatalf("fill ran %d times, want 6", runs)
	}
	hits, misses, evictions := c.Stats()
	if hits != 1 || misses != 6 {
		t.Fatalf("stats = %d hits / %d misses, want 1/6", hits, misses)
	}
	// Evictions: a (by c), c (by d), b (by c-again), d (by a-again) = 4.
	if evictions != 4 {
		t.Fatalf("evictions = %d, want 4", evictions)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "adore_serve_cache_evictions_total 4") {
		t.Fatalf("registry not mirroring evictions:\n%s", buf.String())
	}
}

// TestCacheSingleFlight pins the dedup property: concurrent identical
// keys run fill once and all see its body, and every request that found
// the fill in flight counts as a join on /metrics.
func TestCacheSingleFlight(t *testing.T) {
	reg := metrics.NewRegistry()
	joins := reg.Counter("adore_serve_cache_joins_total", "")
	c := NewShardedCache(CacheConfig{Shards: 2, ShardCap: 8}, reg)
	ctx := context.Background()
	var mu sync.Mutex
	runs := 0
	release := make(chan struct{})
	const n = 8
	var wg sync.WaitGroup
	bodies := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _, err := c.Do(ctx, "abc123", func(context.Context) ([]byte, error) {
				mu.Lock()
				runs++
				mu.Unlock()
				<-release
				return []byte("shared"), nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
				return
			}
			bodies[i] = string(body)
		}(i)
	}
	for joins.Value() != n-1 {
		runtime.Gosched() // let the waiters pile onto the entry
	}
	close(release)
	wg.Wait()
	if runs != 1 {
		t.Fatalf("fill ran %d times under concurrency, want 1", runs)
	}
	for i, b := range bodies {
		if b != "shared" {
			t.Fatalf("waiter %d got %q", i, b)
		}
	}
	hits, misses, _ := c.Stats()
	if misses != 1 || hits != n-1 {
		t.Fatalf("stats = %d hits / %d misses, want %d/1", hits, misses, n-1)
	}
}

// TestCacheWaiterContext pins the no-stranded-waiter fix: a waiter whose
// own context fires while the fill is stuck returns promptly, and a
// failed fill is evicted so a retry re-runs.
func TestCacheWaiterContext(t *testing.T) {
	c := NewShardedCache(CacheConfig{Shards: 1, ShardCap: 4}, nil)
	block := make(chan struct{})
	fillErr := errors.New("boom")

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	runnerDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctxA, "k", func(ctx context.Context) ([]byte, error) {
			close(block)
			<-ctx.Done()
			return nil, fillErr
		})
		runnerDone <- err
	}()
	<-block // the fill is now in flight

	ctxB, cancelB := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctxB, "k", func(context.Context) ([]byte, error) {
			t.Error("waiter must join the in-flight fill, not run its own")
			return nil, nil
		})
		waiterDone <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancelB()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter stranded on a stuck fill after its own ctx fired")
	}

	cancelA()
	if err := <-runnerDone; !errors.Is(err, fillErr) {
		t.Fatalf("runner returned %v, want the fill error", err)
	}
	// The failed entry must be gone: a retry runs a fresh fill.
	body, hit, err := c.Do(context.Background(), "k", fillWith("ok"))
	if err != nil || hit || string(body) != "ok" {
		t.Fatalf("retry after failed fill: body=%q hit=%v err=%v", body, hit, err)
	}
}

// TestCachePanicReleasesWaiters pins the panic path: a panicking fill
// hands its waiters an error instead of a hang, and leaves no entry.
func TestCachePanicReleasesWaiters(t *testing.T) {
	c := NewShardedCache(CacheConfig{Shards: 1, ShardCap: 4}, nil)
	started := make(chan struct{})
	waiterDone := make(chan error, 1)
	go func() {
		defer func() { recover() }()
		c.Do(context.Background(), "k", func(context.Context) ([]byte, error) {
			close(started)
			time.Sleep(10 * time.Millisecond)
			panic("fill died")
		})
	}()
	<-started
	go func() {
		_, _, err := c.Do(context.Background(), "k", func(context.Context) ([]byte, error) {
			return []byte("second"), nil
		})
		waiterDone <- err
	}()
	select {
	case err := <-waiterDone:
		if err == nil {
			t.Fatal("waiter joined a panicked fill and got a nil error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter stranded behind a panicked fill")
	}
	// The shard must be clean for retries.
	body, hit, err := c.Do(context.Background(), "k", fillWith("retry"))
	if err != nil || hit || string(body) != "retry" {
		t.Fatalf("retry after panic: body=%q hit=%v err=%v", body, hit, err)
	}
}

// TestCacheInFlightNotEvicted pins that eviction pressure cannot drop an
// in-flight entry (which would duplicate its simulation).
func TestCacheInFlightNotEvicted(t *testing.T) {
	c := NewShardedCache(CacheConfig{Shards: 1, ShardCap: 1}, nil)
	ctx := context.Background()
	block := make(chan struct{})
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do(ctx, "inflight", func(context.Context) ([]byte, error) {
			close(started)
			<-block
			return []byte("x"), nil
		})
	}()
	<-started
	// Churn the shard far past capacity while "inflight" is running.
	for i := 0; i < 5; i++ {
		c.Do(ctx, fmt.Sprintf("churn-%d", i), fillWith("y"))
	}
	// The in-flight entry must still be joinable.
	joined := make(chan bool, 1)
	go func() {
		_, hit, _ := c.Do(ctx, "inflight", func(context.Context) ([]byte, error) {
			return []byte("dup"), nil
		})
		joined <- hit
	}()
	time.Sleep(10 * time.Millisecond)
	close(block)
	<-done
	if hit := <-joined; !hit {
		t.Fatal("in-flight entry was evicted: a concurrent identical request re-ran the fill")
	}
}
