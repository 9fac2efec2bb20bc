package flight

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
)

// await yields until cond holds. Tests synchronize on the cache's own
// counters and state through it, never on sleeps.
func await(cond func() bool) {
	for !cond() {
		runtime.Gosched()
	}
}

// waitersOf reports how many callers wait on key's in-flight fill (-1 when
// the key has no in-flight entry).
func (c *Cache[V]) waitersOf(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok && !e.done {
		return e.waiters
	}
	return -1
}

func value(s string) func(context.Context) (string, error) {
	return func(context.Context) (string, error) { return s, nil }
}

// blocking is a fill that signals started, then waits for release or its
// context, and records whether the context fired.
type blocking struct {
	started  chan struct{}
	release  chan struct{}
	canceled atomic.Bool
}

func newBlocking() *blocking {
	return &blocking{started: make(chan struct{}), release: make(chan struct{})}
}

func (b *blocking) fill(v string) func(context.Context) (string, error) {
	return func(ctx context.Context) (string, error) {
		close(b.started)
		select {
		case <-b.release:
			return v, nil
		case <-ctx.Done():
			b.canceled.Store(true)
			return "", ctx.Err()
		}
	}
}

// TestCacheSingleFlight: concurrent callers of one key run the fill once
// and all get its value, in bounded and unbounded caches alike; a later
// caller is a plain hit, not a join.
func TestCacheSingleFlight(t *testing.T) {
	for _, capacity := range []int{0, 1, 8} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			c := New[string](capacity)
			var runs atomic.Int32
			release := make(chan struct{})
			const n = 8
			vals := make([]string, n)
			shared := make([]bool, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					v, sh, err := c.Do(context.Background(), "k", func(context.Context) (string, error) {
						runs.Add(1)
						<-release
						return "shared", nil
					})
					if err != nil {
						t.Errorf("Do: %v", err)
					}
					vals[i], shared[i] = v, sh
				}(i)
			}
			await(func() bool { return c.Stats().Joins == n-1 })
			close(release)
			wg.Wait()
			if runs.Load() != 1 {
				t.Fatalf("fill ran %d times, want 1", runs.Load())
			}
			fills := 0
			for i := range vals {
				if vals[i] != "shared" {
					t.Fatalf("caller %d got %q", i, vals[i])
				}
				if !shared[i] {
					fills++
				}
			}
			if fills != 1 {
				t.Fatalf("%d callers report running the fill, want 1", fills)
			}
			if v, sh, err := c.Do(context.Background(), "k", value("dup")); v != "shared" || !sh || err != nil {
				t.Fatalf("later call: %q shared=%v err=%v", v, sh, err)
			}
			if got, want := c.Stats(), (Stats{Hits: n, Joins: n - 1, Misses: 1}); got != want {
				t.Fatalf("stats %+v, want %+v", got, want)
			}
		})
	}
}

// TestCacheWaiterContext: a waiter whose own context fires returns at
// once while the fill keeps running for the others, and a failed fill is
// handed to its waiters but not cached.
func TestCacheWaiterContext(t *testing.T) {
	cases := []struct {
		name    string
		fillErr error // the fill's result once released; nil succeeds
	}{
		{"fill succeeds", nil},
		{"fill fails", errors.New("boom")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New[string](4)
			started, release := make(chan struct{}), make(chan struct{})
			var fillCanceled atomic.Bool
			runner := make(chan error, 1)
			go func() {
				_, _, err := c.Do(context.Background(), "k", func(ctx context.Context) (string, error) {
					close(started)
					<-release
					fillCanceled.Store(ctx.Err() != nil)
					return "v", tc.fillErr
				})
				runner <- err
			}()
			<-started

			ctxB, cancelB := context.WithCancel(context.Background())
			waiter := make(chan error, 1)
			go func() {
				_, sh, err := c.Do(ctxB, "k", func(context.Context) (string, error) {
					t.Error("a waiter must join the in-flight fill, not run its own")
					return "", nil
				})
				if !sh {
					t.Error("a waiter reported running the fill")
				}
				waiter <- err
			}()
			await(func() bool { return c.Stats().Joins == 1 })
			cancelB()
			if err := <-waiter; !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled waiter returned %v, want context.Canceled", err)
			}
			await(func() bool { return c.waitersOf("k") < 2 })

			close(release)
			if err := <-runner; !errors.Is(err, tc.fillErr) {
				t.Fatalf("runner returned %v, want %v", err, tc.fillErr)
			}
			if fillCanceled.Load() {
				t.Fatal("a waiter leaving canceled the fill its runner still waits on")
			}
			v, sh, err := c.Do(context.Background(), "k", value("retry"))
			want := "v"
			if tc.fillErr != nil {
				want = "retry" // not cached: the next caller fills afresh
			}
			if err != nil || v != want || sh != (tc.fillErr == nil) {
				t.Fatalf("next call: %q shared=%v err=%v, want %q", v, sh, err, want)
			}
		})
	}
}

// TestCacheFirstCallerLeaves is the fill-context regression: the caller
// that started a fill gives up after a second caller joined it. The
// second still gets the value, and the fill never sees a cancellation.
func TestCacheFirstCallerLeaves(t *testing.T) {
	c := New[string](0)
	b := newBlocking()
	ctxA, cancelA := context.WithCancel(context.Background())
	runner := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctxA, "k", b.fill("v"))
		runner <- err
	}()
	<-b.started
	joiner := make(chan string, 1)
	go func() {
		v, _, err := c.Do(context.Background(), "k", value("dup"))
		if err != nil {
			t.Errorf("joiner: %v", err)
		}
		joiner <- v
	}()
	await(func() bool { return c.Stats().Joins == 1 })
	cancelA()
	await(func() bool { return c.waitersOf("k") < 2 })
	close(b.release)
	if v := <-joiner; v != "v" {
		t.Fatalf("joiner got %q, want the fill's value", v)
	}
	if err := <-runner; err != nil {
		t.Fatalf("runner: %v", err)
	}
	if b.canceled.Load() {
		t.Fatal("the fill saw its first caller's cancellation")
	}
}

// TestCacheLastWaiterCancelsFill: once every waiter has left, the fill's
// context is canceled, the entry is already gone when it is, and the next
// caller starts a fresh fill — which the dying fill, returning late, must
// not unlink.
func TestCacheLastWaiterCancelsFill(t *testing.T) {
	c := New[string](0)
	ctxA, cancelA := context.WithCancel(context.Background())
	ctxB, cancelB := context.WithCancel(context.Background())
	started, canceled, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var linkedAtCancel atomic.Bool
	runner := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctxA, "k", func(ctx context.Context) (string, error) {
			close(started)
			<-ctx.Done()
			linkedAtCancel.Store(c.Len() != 0)
			close(canceled)
			<-release
			return "", ctx.Err()
		})
		runner <- err
	}()
	<-started
	joiner := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctxB, "k", value("dup"))
		joiner <- err
	}()
	await(func() bool { return c.Stats().Joins == 1 })
	cancelB()
	if err := <-joiner; !errors.Is(err, context.Canceled) {
		t.Fatalf("joiner returned %v, want context.Canceled", err)
	}
	cancelA()
	<-canceled
	if linkedAtCancel.Load() {
		t.Fatal("the fill was canceled while its entry was still joinable")
	}

	fresh := newBlocking()
	next := make(chan string, 2)
	call := func() {
		v, _, err := c.Do(context.Background(), "k", fresh.fill("fresh"))
		if err != nil {
			t.Errorf("caller after the canceled fill: %v", err)
		}
		next <- v
	}
	go call()
	<-fresh.started
	close(release) // the canceled fill returns while the fresh one runs
	if err := <-runner; !errors.Is(err, context.Canceled) {
		t.Fatalf("runner returned %v, want context.Canceled", err)
	}
	go call() // must join the fresh fill, which still owns the key
	await(func() bool { return c.Stats().Joins == 2 })
	close(fresh.release)
	for i := 0; i < 2; i++ {
		if v := <-next; v != "fresh" {
			t.Fatalf("caller after the canceled fill got %q", v)
		}
	}
	if got := c.Stats().Misses; got != 2 {
		t.Fatalf("misses = %d, want 2", got)
	}
}

// TestCachePanicReleasesWaiters: a panicking fill hands its waiters an
// error, leaves no entry, and panics on in the caller that ran it.
func TestCachePanicReleasesWaiters(t *testing.T) {
	c := New[string](4)
	started := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		c.Do(context.Background(), "k", func(context.Context) (string, error) {
			close(started)
			await(func() bool { return c.Stats().Joins == 1 })
			panic("fill died")
		})
	}()
	<-started
	_, sh, err := c.Do(context.Background(), "k", value("second"))
	if err == nil || !sh {
		t.Fatalf("waiter of a panicked fill: shared=%v err=%v, want a shared error", sh, err)
	}
	if p := <-recovered; p != "fill died" {
		t.Fatalf("runner recovered %v, want the fill's panic", p)
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("%d entries after a panicked fill, want 0", n)
	}
	if v, sh, err := c.Do(context.Background(), "k", value("retry")); v != "retry" || sh || err != nil {
		t.Fatalf("retry after panic: %q shared=%v err=%v", v, sh, err)
	}
}

// TestCacheInFlightNotEvicted: eviction pressure never drops an in-flight
// entry, which would let an identical request start a duplicate fill.
func TestCacheInFlightNotEvicted(t *testing.T) {
	c := New[string](1)
	b := newBlocking()
	runner := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "inflight", b.fill("x"))
		runner <- err
	}()
	<-b.started
	for i := 0; i < 5; i++ {
		c.Do(context.Background(), fmt.Sprintf("churn-%d", i), value("y"))
	}
	joined := make(chan string, 1)
	go func() {
		v, _, _ := c.Do(context.Background(), "inflight", value("dup"))
		joined <- v
	}()
	await(func() bool { return c.Stats().Joins == 1 })
	close(b.release)
	if err := <-runner; err != nil {
		t.Fatal(err)
	}
	if v := <-joined; v != "x" {
		t.Fatalf("joiner got %q: the in-flight entry was evicted and re-filled", v)
	}
	// churn-1..4 each evict their predecessor; "inflight" completing
	// evicts churn-4.
	if got := c.Stats(); got.Misses != 6 || got.Evictions != 5 {
		t.Fatalf("stats %+v, want 6 misses and 5 evictions", got)
	}
}

// TestCacheLRUEviction: a full cache evicts exactly the least recently
// used completed key, checked against a reference model over seeded
// request sequences, with every counter and metric mirror exact. The
// model predicts which requests run their fill, so a wrong victim shows
// as a wrong fill count whatever Do reports as shared.
func TestCacheLRUEviction(t *testing.T) {
	for _, capacity := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			reg := metrics.NewRegistry()
			c := New[string](capacity)
			c.SetMetrics(Metrics{
				Hits:      reg.Counter("hits", ""),
				Joins:     reg.Counter("joins", ""),
				Misses:    reg.Counter("misses", ""),
				Evictions: reg.Counter("evictions", ""),
			})
			keys := []string{"a", "b", "c", "d", "e", "f", "g"}
			var model []string // least recently used first
			var want Stats
			var fills uint64
			rng := rand.New(rand.NewSource(int64(capacity)))
			for step := 0; step < 400; step++ {
				k := keys[rng.Intn(len(keys))]
				v, sh, err := c.Do(context.Background(), k, func(context.Context) (string, error) {
					fills++
					return "v-" + k, nil
				})
				if err != nil || v != "v-"+k {
					t.Fatalf("step %d (%s): %q err=%v", step, k, v, err)
				}
				i := slices.Index(model, k)
				if sh != (i >= 0) {
					t.Fatalf("step %d (%s): shared=%v, model holds %v", step, k, sh, model)
				}
				if i >= 0 {
					want.Hits++
					model = slices.Delete(model, i, i+1)
				} else {
					want.Misses++
				}
				model = append(model, k)
				if len(model) > capacity {
					model = model[1:]
					want.Evictions++
				}
				if fills != want.Misses {
					t.Fatalf("step %d (%s): %d fills ran, want %d (model %v)", step, k, fills, want.Misses, model)
				}
				if n := c.Len(); n != len(model) {
					t.Fatalf("step %d: %d entries, want %d", step, n, len(model))
				}
			}
			if got := c.Stats(); got != want {
				t.Fatalf("stats %+v, want %+v", got, want)
			}
			mirrored := Stats{
				Hits:      reg.Counter("hits", "").Value(),
				Joins:     reg.Counter("joins", "").Value(),
				Misses:    reg.Counter("misses", "").Value(),
				Evictions: reg.Counter("evictions", "").Value(),
			}
			if mirrored != want {
				t.Fatalf("metric mirrors %+v, want %+v", mirrored, want)
			}
		})
	}
}

// TestCacheStress runs a seeded mix of callers over a few keys, some of
// which give up mid-wait, and checks the cache's accounting by counts:
// every call is one hit or one miss, joins are a subset of hits, every
// fill either completed or was canceled, and a fill is canceled only once
// all its waiters have left — so no caller whose own context is live
// ever sees an error. Run it under -race.
func TestCacheStress(t *testing.T) {
	const (
		goroutines = 16
		calls      = 200
	)
	c := New[string](2)
	keys := []string{"k0", "k1", "k2", "k3"}
	var (
		started, completed, canceled atomic.Uint64
		liveFailures                 atomic.Uint64
		wg                           sync.WaitGroup
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			for i := 0; i < calls; i++ {
				key := keys[rng.Intn(len(keys))]
				work := rng.Intn(64)
				ctx, cancel := context.WithCancel(context.Background())
				var canceller sync.WaitGroup
				if rng.Intn(3) == 0 {
					delay := rng.Intn(64)
					canceller.Add(1)
					go func() {
						defer canceller.Done()
						for j := 0; j < delay; j++ {
							runtime.Gosched()
						}
						cancel()
					}()
				}
				_, _, err := c.Do(ctx, key, func(fctx context.Context) (string, error) {
					started.Add(1)
					for j := 0; j < work; j++ {
						if fctx.Err() != nil {
							if ctx.Err() == nil {
								t.Error("a fill was canceled while the caller running it still waited")
							}
							canceled.Add(1)
							return "", fctx.Err()
						}
						runtime.Gosched()
					}
					completed.Add(1)
					return key, nil
				})
				if err != nil && ctx.Err() == nil {
					liveFailures.Add(1)
				}
				canceller.Wait()
				cancel()
			}
		}(g)
	}
	wg.Wait()

	st := c.Stats()
	if st.Hits+st.Misses != goroutines*calls {
		t.Errorf("hits %d + misses %d != %d calls", st.Hits, st.Misses, goroutines*calls)
	}
	if st.Joins > st.Hits {
		t.Errorf("joins %d > hits %d", st.Joins, st.Hits)
	}
	if started.Load() != st.Misses {
		t.Errorf("%d fills started for %d misses", started.Load(), st.Misses)
	}
	if started.Load() != completed.Load()+canceled.Load() {
		t.Errorf("%d fills started, %d completed + %d canceled", started.Load(), completed.Load(), canceled.Load())
	}
	if n := liveFailures.Load(); n != 0 {
		t.Errorf("%d calls with a live context got an error", n)
	}
	t.Logf("stats %+v; fills %d completed, %d canceled", st, completed.Load(), canceled.Load())
}
