package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/metrics"
)

func fillWith(body string) func(context.Context) ([]byte, error) {
	return func(context.Context) ([]byte, error) { return []byte(body), nil }
}

// TestCacheMetricsMirrorStats: the response cache's counters on the
// server's registry equal its Stats. A real /run fills and hits it; a
// fill held open gets a join; filling past the bound evicts.
func TestCacheMetricsMirrorStats(t *testing.T) {
	s, ts := testServer(t)
	const body = `{"workload":"mcf","scale":0.02}`
	for i := 0; i < 2; i++ {
		if resp := post(t, ts.URL+"/run", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d: %s", i, resp.StatusCode, readAll(t, resp))
		} else {
			readAll(t, resp)
		}
	}

	c := s.Cache()
	ctx := context.Background()
	release := make(chan struct{})
	filled := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, "held", func(context.Context) ([]byte, error) {
			<-release
			return []byte("held"), nil
		})
		filled <- err
	}()
	for c.Len() == 1 {
		runtime.Gosched() // wait for the held fill to take its entry
	}
	joined := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, "held", func(context.Context) ([]byte, error) { return nil, nil })
		joined <- err
	}()
	for c.Cache.Stats().Joins == 0 {
		runtime.Gosched()
	}
	close(release)
	for _, ch := range []chan error{filled, joined} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; c.Cache.Stats().Evictions < 2; i++ {
		if _, _, err := c.Do(ctx, fmt.Sprint("churn-", i), func(context.Context) ([]byte, error) { return []byte("x"), nil }); err != nil {
			t.Fatal(err)
		}
	}

	want := c.Cache.Stats()
	if want.Hits == want.Joins || want.Joins == 0 || want.Misses == 0 {
		t.Fatalf("stats %+v: the test should drive a plain hit, a join, misses and evictions", want)
	}
	reg := s.Registry()
	got := flight.Stats{
		Hits:      reg.Counter("adore_serve_cache_hits_total", "").Value(),
		Joins:     reg.Counter("adore_serve_cache_joins_total", "").Value(),
		Misses:    reg.Counter("adore_serve_cache_misses_total", "").Value(),
		Evictions: reg.Counter("adore_serve_cache_evictions_total", "").Value(),
	}
	if got != want {
		t.Fatalf("registry counters %+v, cache stats %+v", got, want)
	}
	if n := c.Len(); n != responseCacheCap {
		t.Fatalf("cache holds %d bodies, bound %d", n, responseCacheCap)
	}
}

// TestServerHoldsEachAnswerOnce: after distinct /run and /sweep requests
// the response cache holds one body per request, and the engine's result
// cache has seen no traffic and holds nothing.
func TestServerHoldsEachAnswerOnce(t *testing.T) {
	s, ts := testServer(t)
	reqs := []struct{ path, body string }{
		{"/run", `{"workload":"mcf","scale":0.02}`},
		{"/run", `{"workload":"mcf","scale":0.02,"policy":"paper"}`},
		{"/run", `{"workload":"art","scale":0.02,"opt":"O3"}`},
		{"/sweep", `{"workload":"mcf","scale":0.02,"policies":["base","paper"]}`},
	}
	for _, r := range reqs {
		resp := post(t, ts.URL+r.path, r.body)
		if b := readAll(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", r.path, r.body, resp.StatusCode, b)
		}
	}
	if n := s.Cache().Len(); n != len(reqs) {
		t.Fatalf("response cache holds %d bodies after %d distinct requests", n, len(reqs))
	}
	if rc := s.eng.Results(); rc != nil {
		if hits, misses := rc.Stats(); hits+misses != 0 || rc.Len() != 0 {
			t.Fatalf("engine result cache saw %d hits / %d misses and holds %d runs", hits, misses, rc.Len())
		}
	}
	reg := s.Registry()
	for _, name := range []string{"adore_engine_result_cache_hits_total", "adore_engine_result_cache_misses_total"} {
		if v := reg.Counter(name, "").Value(); v != 0 {
			t.Errorf("%s = %d, want 0", name, v)
		}
	}
	if v := reg.Counter("adore_engine_jobs_completed_total", "").Value(); v == 0 {
		t.Error("no engine job completed; the requests did not simulate")
	}
}

// TestCacheLRUEviction pins eviction order and counter accuracy at
// capacity 2, with a touch refreshing recency.
func TestCacheLRUEviction(t *testing.T) {
	reg := metrics.NewRegistry()
	c := newResponseCache(reg, 2)
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
	c := newResponseCache(reg, 8)
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
	c := newResponseCache(nil, 4)
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
	c := newResponseCache(nil, 4)
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
	// The cache must be clean for retries.
	body, hit, err := c.Do(context.Background(), "k", fillWith("retry"))
	if err != nil || hit || string(body) != "retry" {
		t.Fatalf("retry after panic: body=%q hit=%v err=%v", body, hit, err)
	}
}

// TestCacheInFlightNotEvicted pins that eviction pressure cannot drop an
// in-flight entry (which would duplicate its simulation).
func TestCacheInFlightNotEvicted(t *testing.T) {
	c := newResponseCache(nil, 1)
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
	// Churn the cache far past capacity while "inflight" is running.
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
