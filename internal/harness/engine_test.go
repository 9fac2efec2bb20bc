package harness

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/workloads"
)

func TestEngineMapSlotsResultsByIndex(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := NewEngine(EngineConfig{Parallelism: workers})
		const n = 32
		out := make([]int, n)
		err := e.Map(context.Background(), n, func(_ context.Context, i int) error {
			out[i] = i * i
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range out {
			if out[i] != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, out[i])
			}
		}
	}
}

func TestEngineMapFirstErrorCancelsRest(t *testing.T) {
	e := NewEngine(EngineConfig{Parallelism: 2})
	boom := errors.New("boom")
	var ran atomic.Int64
	err := e.Map(context.Background(), 1000, func(ctx context.Context, i int) error {
		ran.Add(1)
		if i == 3 {
			return boom
		}
		time.Sleep(200 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := ran.Load(); n == 1000 {
		t.Fatal("error did not stop job dispatch")
	}
}

func TestEngineMapHonorsParentCancellation(t *testing.T) {
	e := NewEngine(EngineConfig{Parallelism: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := e.Map(ctx, 10, func(context.Context, int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestEngineSlotsBoundConcurrentSweeps: more concurrent sweeps than the
// engine is wide, each a distinct result-cache miss, never run more
// simulations at once than Parallelism — the bound adore-serve relies on
// when more clients miss at once than it has workers.
func TestEngineSlotsBoundConcurrentSweeps(t *testing.T) {
	const width, sweeps = 2, 8
	e := NewEngine(EngineConfig{Parallelism: width})
	var running, peak, arrived atomic.Int64
	release := make(chan struct{})
	e.results.runFn = func(context.Context, *compiler.BuildResult, RunConfig) (*RunResult, error) {
		n := running.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		<-release
		running.Add(-1)
		return &RunResult{Name: "stub"}, nil
	}
	b, err := workloads.ByName("mcf", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	sp := benchSpec(b, 0.02, compiler.O2)
	errs := make(chan error, sweeps)
	for i := 0; i < sweeps; i++ {
		cfg := DefaultRunConfig()
		cfg.MaxInsts -= uint64(i) // a distinct fingerprint, so every sweep misses
		go func() {
			arrived.Add(1)
			_, err := e.RunJob(context.Background(), "sweep", Job{Name: "mcf", Compile: sp, Config: cfg})
			errs <- err
		}()
	}
	for running.Load() < width || arrived.Load() < sweeps {
		runtime.Gosched()
	}
	// Give every sweep past the bound the chance to start a simulation.
	for i := 0; i < 1000; i++ {
		runtime.Gosched()
	}
	close(release)
	for i := 0; i < sweeps; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if p := peak.Load(); p != width {
		t.Fatalf("%d simulations ran at once on an engine %d wide", p, width)
	}
	if _, misses := e.Results().Stats(); misses != sweeps {
		t.Fatalf("result-cache misses = %d, want %d", misses, sweeps)
	}
}

// scheduler is one of the engine's two job schedulers under one
// signature, so the per-job bookkeeping tests cover both; RunJobs
// reports no fork statistics.
type scheduler struct {
	name string
	run  func(e *Engine, ctx context.Context, sweep string, jobs []Job) ([]*RunResult, *ForkStats, error)
}

var (
	straightScheduler = scheduler{"RunJobs", func(e *Engine, ctx context.Context, sweep string, jobs []Job) ([]*RunResult, *ForkStats, error) {
		out, err := e.RunJobs(ctx, sweep, jobs)
		return out, nil, err
	}}
	forkScheduler = scheduler{"RunJobsForked", (*Engine).RunJobsForked}
)

// forkGroupJobs returns two ADORE jobs of one compile that differ only in
// prefetch policy — a real fork group: under RunJobsForked the first runs
// as the probe and the second resumes from its snapshot.
func forkGroupJobs(t *testing.T, name string) []Job {
	t.Helper()
	g := GoldenExpConfig()
	b, err := workloads.ByName(name, g.Scale)
	if err != nil {
		t.Fatal(err)
	}
	sp := benchSpec(b, g.Scale, compiler.O2)
	return []Job{
		{Name: name + "/paper", Compile: sp, Config: forkRunConfig(g.Core, core.PolicyPaper, false)},
		{Name: name + "/nextline", Compile: sp, Config: forkRunConfig(g.Core, core.PolicyNextLine, false)},
	}
}

// TestEngineProgressEvents checks both schedulers report one start and one
// done event per job, each labeled with the sweep, its index and the
// sweep's size — the fork-group case through the probe and continuation
// paths too.
func TestEngineProgressEvents(t *testing.T) {
	b, err := workloads.ByName("mcf", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	sp := benchSpec(b, 0.02, compiler.O2)
	plain := []Job{
		{Name: "mcf/a", Compile: sp, Config: DefaultRunConfig()},
		{Name: "mcf/b", Compile: sp, Config: DefaultRunConfig()},
	}
	cases := []struct {
		name       string
		sched      scheduler
		jobs       []Job
		wantGroups int
	}{
		{"RunJobs", straightScheduler, plain, 0},
		{"RunJobsForked", forkScheduler, plain, 0},
		{"RunJobsForked/fork-group", forkScheduler, forkGroupJobs(t, "mcf"), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			starts := map[int]int{}
			dones := map[int]int{}
			e := NewEngine(EngineConfig{Parallelism: 2, OnProgress: func(p Progress) {
				mu.Lock()
				defer mu.Unlock()
				if p.Done {
					dones[p.Index]++
				} else {
					starts[p.Index]++
				}
				if p.Total != len(tc.jobs) || p.Sweep != "test" || p.Job != tc.jobs[p.Index].Name || p.Err != nil {
					t.Errorf("bad progress event %+v", p)
				}
			}})
			_, stats, err := tc.sched.run(e, context.Background(), "test", tc.jobs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range tc.jobs {
				if starts[i] != 1 || dones[i] != 1 {
					t.Errorf("job %d: starts=%d dones=%d, want 1/1", i, starts[i], dones[i])
				}
			}
			if stats != nil && (stats.Groups != tc.wantGroups || stats.ForkedRuns != tc.wantGroups) {
				t.Errorf("fork stats %+v, want %d group(s) and forked run(s)", stats, tc.wantGroups)
			}
		})
	}
}

// TestBuildCacheSingleFlight proves the cache compiles once per key no
// matter how many goroutines race on it, and that distinct options miss
// separately.
func TestBuildCacheSingleFlight(t *testing.T) {
	b, err := workloads.ByName("mcf", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	c := NewBuildCache()
	sp := benchSpec(b, 0.02, compiler.O2)

	const callers = 8
	builds := make([]*compiler.BuildResult, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			br, err := c.Build(sp)
			if err != nil {
				t.Error(err)
				return
			}
			builds[i] = br
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if builds[i] != builds[0] {
			t.Fatalf("caller %d got a different build", i)
		}
	}
	hits, misses := c.Stats()
	if misses != 1 || hits != callers-1 {
		t.Fatalf("hits=%d misses=%d, want %d/1", hits, misses, callers-1)
	}

	// A different optimization level is a different key.
	if _, err := c.Build(benchSpec(b, 0.02, compiler.O3)); err != nil {
		t.Fatal(err)
	}
	if _, misses := c.Stats(); misses != 2 {
		t.Fatalf("misses after O3 = %d, want 2", misses)
	}
	// Same spec again: pure hit.
	if _, err := c.Build(sp); err != nil {
		t.Fatal(err)
	}
	if hits, _ := c.Stats(); hits != callers {
		t.Fatalf("hits after re-ask = %d, want %d", hits, callers)
	}
}

// TestRunJobsSharesCompiles asserts the Fig. 7 job shape — two runs per
// benchmark over one compile — really does hit the cache.
func TestRunJobsSharesCompiles(t *testing.T) {
	b, err := workloads.ByName("gzip", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(EngineConfig{Parallelism: 2})
	sp := benchSpec(b, 0.05, compiler.O2)
	adore := DefaultRunConfig()
	adore.ADORE = true
	runs, err := e.RunJobs(context.Background(), "test", []Job{
		{Name: "gzip/base", Compile: sp, Config: DefaultRunConfig()},
		{Name: "gzip/adore", Compile: sp, Config: adore},
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs[0] == nil || runs[1] == nil {
		t.Fatal("missing results")
	}
	if runs[0].Core != nil || runs[1].Core == nil {
		t.Fatal("results not slotted by index: base/adore swapped")
	}
	hits, misses := e.Cache().Stats()
	if misses != 1 || hits != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}
}

// TestRunContextCancellation proves cancellation reaches the CPU loop: a
// pre-cancelled context stops the run before it simulates anything.
func TestRunContextCancellation(t *testing.T) {
	b, err := workloads.ByName("mcf", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	build, err := compiler.Build(b.Kernel, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, build, DefaultRunConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunContextCancelMidRun cancels a run already in flight and expects it
// to stop long before the workload would finish.
func TestRunContextCancelMidRun(t *testing.T) {
	b, err := workloads.ByName("mcf", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	build, err := compiler.Build(b.Kernel, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, build, DefaultRunConfig())
		done <- err
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestResultCacheWaiterNotStranded is the regression test for the serve
// hardening PR: a sweep whose first runner is canceled must not strand a
// concurrent second waiter on a ready channel that never closes (or that
// closes only when the stuck runner eventually dies). The waiter blocks on
// the in-flight run OR its own context, and a retry after the canceled
// first runner re-runs instead of replaying the stale error.
func TestResultCacheWaiterNotStranded(t *testing.T) {
	c := NewResultCache()
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	c.runFn = func(ctx context.Context, _ *compiler.BuildResult, _ RunConfig) (*RunResult, error) {
		started <- struct{}{}
		select {
		case <-block:
			return &RunResult{Name: "stub"}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	cfg := DefaultRunConfig()

	// First runner: holds the in-flight entry until its context fires.
	ctxA, cancelA := context.WithCancel(context.Background())
	errA := make(chan error, 1)
	go func() {
		_, err := c.Run(ctxA, "k", nil, cfg)
		errA <- err
	}()
	<-started

	// Second waiter with its own live context: joins the in-flight entry.
	// Canceling ITS context must release it promptly even though the first
	// runner is still stuck.
	ctxB, cancelB := context.WithCancel(context.Background())
	errB := make(chan error, 1)
	go func() {
		_, err := c.Run(ctxB, "k", nil, cfg)
		errB <- err
	}()
	time.Sleep(5 * time.Millisecond) // let B reach the wait
	cancelB()
	select {
	case err := <-errB:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("second waiter stranded on a canceled context")
	}

	// Cancel the first runner: its error evicts the entry...
	cancelA()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("runner err = %v, want context.Canceled", err)
	}
	// ...so a retried sweep re-runs and succeeds.
	close(block)
	res, err := c.Run(context.Background(), "k", nil, cfg)
	if err != nil || res == nil || res.Name != "stub" {
		t.Fatalf("retry after canceled runner: res=%v err=%v", res, err)
	}
	if hits, misses := c.Stats(); misses != 2 {
		t.Fatalf("stats = %d hits / %d misses, want 2 misses (canceled + retry)", hits, misses)
	}
}

// TestResultCacheJoinerOutlivesFirstCaller: the sweep that started a run
// is canceled after a second sweep joined it. The run belongs to both, so
// it goes on, the second sweep gets the record, and the runner never sees
// the first sweep's cancellation.
func TestResultCacheJoinerOutlivesFirstCaller(t *testing.T) {
	c := NewResultCache()
	started, release := make(chan struct{}), make(chan struct{})
	c.runFn = func(ctx context.Context, _ *compiler.BuildResult, _ RunConfig) (*RunResult, error) {
		close(started)
		<-release
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return &RunResult{Name: "stub"}, nil
	}
	cfg := DefaultRunConfig()
	ctxA, cancelA := context.WithCancel(context.Background())
	errA := make(chan error, 1)
	go func() {
		_, err := c.Run(ctxA, "k", nil, cfg)
		errA <- err
	}()
	<-started
	type outcome struct {
		res *RunResult
		err error
	}
	second := make(chan outcome, 1)
	go func() {
		res, err := c.Run(context.Background(), "k", nil, cfg)
		second <- outcome{res, err}
	}()
	for hits, _ := c.Stats(); hits == 0; hits, _ = c.Stats() {
		runtime.Gosched()
	}
	cancelA()
	close(release)
	if got := <-second; got.err != nil || got.res == nil || got.res.Name != "stub" {
		t.Fatalf("second sweep: res=%v err=%v, want the shared record", got.res, got.err)
	}
	if err := <-errA; err != nil {
		t.Fatalf("first sweep: %v", err)
	}
}

// TestResultCachePanicReleasesWaiters: a panicking runner must evict its
// entry and close the ready channel before the panic unwinds, so waiters
// see an error instead of stranding forever.
func TestResultCachePanicReleasesWaiters(t *testing.T) {
	c := NewResultCache()
	entered := make(chan struct{})
	c.runFn = func(context.Context, *compiler.BuildResult, RunConfig) (*RunResult, error) {
		close(entered)
		time.Sleep(5 * time.Millisecond) // let the waiter join first
		panic("runner died")
	}
	cfg := DefaultRunConfig()
	go func() {
		defer func() { recover() }()
		c.Run(context.Background(), "k", nil, cfg)
	}()
	<-entered
	_, err := c.Run(context.Background(), "k", nil, cfg)
	if err == nil {
		t.Fatal("waiter of a panicked runner returned a nil error")
	}
	// The entry was evicted, so a retry runs fresh (and panics again here,
	// but through its own call — prove the eviction only).
	if n := c.Len(); n != 0 {
		t.Fatalf("cache holds %d entries after a panicked runner, want 0", n)
	}
}

// TestResultCacheBoundedLRU pins the bounded mode: least-recently-touched
// completed entries are evicted past capacity, touching refreshes recency,
// and the eviction counter is exact.
func TestResultCacheBoundedLRU(t *testing.T) {
	c := NewResultCacheBounded(2)
	var runs atomic.Int64
	c.runFn = func(_ context.Context, _ *compiler.BuildResult, _ RunConfig) (*RunResult, error) {
		runs.Add(1)
		return &RunResult{Name: "stub"}, nil
	}
	cfg := DefaultRunConfig()
	ctx := context.Background()
	must := func(key string) {
		t.Helper()
		if _, err := c.Run(ctx, key, nil, cfg); err != nil {
			t.Fatal(err)
		}
	}
	must("a")
	must("b")
	must("c") // evicts a
	if got := c.Evictions(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	must("b") // hit; refreshes b over c
	must("d") // evicts c (b was touched)
	if got := c.Evictions(); got != 2 {
		t.Fatalf("evictions = %d, want 2", got)
	}
	must("b") // still cached
	must("a") // was evicted: re-runs, evicts d
	if got := runs.Load(); got != 5 {
		t.Fatalf("runs = %d, want 5 (a b c d + re-run of a)", got)
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 5 {
		t.Fatalf("stats = %d hits / %d misses, want 2/5", hits, misses)
	}
	if n := c.Len(); n != 2 {
		t.Fatalf("cache holds %d entries, want capacity 2", n)
	}
}
