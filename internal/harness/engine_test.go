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
		err := e.each(context.Background(), n, func(_ context.Context, i int) error {
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
	err := e.each(context.Background(), 1000, func(ctx context.Context, i int) error {
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
	err := e.each(ctx, 10, func(context.Context, int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestEngineSlotsBoundConcurrentSweeps: more concurrent sweeps than the
// engine is wide, each a distinct simulation, never run more simulations
// at once than Parallelism — the bound adore-serve relies on when more
// clients miss at once than it has workers. Each sweep's run holds its
// slot in its first OnOptimize hook until the test releases them all.
func TestEngineSlotsBoundConcurrentSweeps(t *testing.T) {
	const width, sweeps = 2, 8
	e := NewEngine(EngineConfig{Parallelism: width})
	var running, peak, arrived, hooked atomic.Int64
	release := make(chan struct{})
	b, err := workloads.ByName("mcf", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	sp := benchSpec(b, 0.02, compiler.O2)
	errs := make(chan error, sweeps)
	for i := 0; i < sweeps; i++ {
		cfg := DefaultRunConfig()
		cfg.ADORE = true
		cfg.MaxInsts -= uint64(i) // a distinct fingerprint per sweep
		var first sync.Once
		cfg.OnOptimize = func(uint64, *core.Trace, []core.DelinquentLoad, core.OptimizeResult) {
			first.Do(func() {
				hooked.Add(1)
				n := running.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				<-release
				running.Add(-1)
			})
		}
		go func() {
			arrived.Add(1)
			_, _, err := e.RunJobs(context.Background(), "sweep", []Job{{Name: "mcf", Compile: sp, Config: cfg}})
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
	if n := hooked.Load(); n != sweeps {
		t.Fatalf("%d of %d sweeps reached their hook", n, sweeps)
	}
}

// forkGroupJobs returns two ADORE jobs of one compile that differ only in
// prefetch policy — a real fork group: under RunJobs the first runs
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

// mergeGroupJobs returns mcf's paper, throttle, selector and nextline
// columns at golden scale: under RunJobs paper probes, throttle and
// the selector decide exactly as paper does and merge with it, and
// nextline diverges and resumes from the snapshot.
func mergeGroupJobs(t *testing.T) []Job {
	t.Helper()
	g := GoldenExpConfig()
	b, err := workloads.ByName("mcf", g.Scale)
	if err != nil {
		t.Fatal(err)
	}
	sp := benchSpec(b, g.Scale, compiler.O2)
	var jobs []Job
	for _, col := range []string{core.PolicyPaper, core.PolicyThrottle, PolicySelectorColumn, core.PolicyNextLine} {
		jobs = append(jobs, Job{Name: "mcf/" + col, Compile: sp, Config: forkRunConfig(g.Core, col, false)})
	}
	return jobs
}

// TestEngineProgressEvents checks the scheduler reports one start and one
// done event per job, each labeled with the sweep, its index and the
// sweep's size — for plain jobs, which form no group and all run
// straight, for a fork group through the probe and continuation paths,
// and for a merging group through the merged members' jobs.
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
		jobs       []Job
		wantGroups int
		wantMerged int
	}{
		{"RunJobs", plain, 0, 0},
		{"RunJobs/fork-group", forkGroupJobs(t, "mcf"), 1, 0},
		{"RunJobs/merging-group", mergeGroupJobs(t), 1, 2},
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
			_, stats, err := e.RunJobs(context.Background(), "test", tc.jobs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range tc.jobs {
				if starts[i] != 1 || dones[i] != 1 {
					t.Errorf("job %d: starts=%d dones=%d, want 1/1", i, starts[i], dones[i])
				}
			}
			if stats.Groups != tc.wantGroups || stats.ForkedRuns != tc.wantGroups || stats.MergedRuns != tc.wantMerged {
				t.Errorf("fork stats %+v, want %d group(s) and forked run(s), %d merged", stats, tc.wantGroups, tc.wantMerged)
			}
			if tc.wantGroups == 0 && stats.StraightRuns != len(tc.jobs) {
				t.Errorf("plain sweep: %d straight runs, want every one of its %d jobs", stats.StraightRuns, len(tc.jobs))
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
	runs, _, err := e.RunJobs(context.Background(), "test", []Job{
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

// adoreRun returns an mcf@0.02 build and a maker of ADORE configs whose
// every optimization calls hook, so a test can hold or kill a real
// simulation inside a ResultCache. The hook is not part of the
// fingerprint, so every config it makes shares one cache entry.
func adoreRun(t *testing.T) (*compiler.BuildResult, func(hook func()) RunConfig) {
	t.Helper()
	b, err := workloads.ByName("mcf", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	build, err := compiler.Build(b.Kernel, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return build, func(hook func()) RunConfig {
		cfg := DefaultRunConfig()
		cfg.ADORE = true
		if hook != nil {
			cfg.OnOptimize = func(uint64, *core.Trace, []core.DelinquentLoad, core.OptimizeResult) { hook() }
		}
		return cfg
	}
}

// TestResultCacheWaiterNotStranded: a sweep whose first runner is
// canceled must not strand a concurrent second waiter on a run that never
// finishes. The waiter blocks on the in-flight run OR its own context,
// and a retry after the canceled first runner re-runs instead of
// replaying the stale error.
func TestResultCacheWaiterNotStranded(t *testing.T) {
	build, config := adoreRun(t)
	direct, err := RunContext(context.Background(), build, config(nil))
	if err != nil {
		t.Fatal(err)
	}
	c := NewResultCache()
	block, started := make(chan struct{}), make(chan struct{})
	var first sync.Once

	// First runner: holds the in-flight run until its context fires.
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	hold := config(func() {
		first.Do(func() { close(started) })
		select {
		case <-block:
		case <-ctxA.Done():
		}
	})
	errA := make(chan error, 1)
	go func() {
		_, err := c.Run(ctxA, "k", build, hold)
		errA <- err
	}()
	<-started

	// Second waiter with its own live context: joins the in-flight run.
	// Canceling ITS context must release it promptly even though the first
	// runner is still stuck.
	ctxB, cancelB := context.WithCancel(context.Background())
	errB := make(chan error, 1)
	go func() {
		_, err := c.Run(ctxB, "k", build, config(nil))
		errB <- err
	}()
	for hits, _ := c.Stats(); hits == 0; hits, _ = c.Stats() {
		runtime.Gosched() // let B join the run
	}
	cancelB()
	select {
	case err := <-errB:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("second waiter stranded on a canceled context")
	}

	// Cancel the first runner: the run dies with its last waiter...
	cancelA()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("runner err = %v, want context.Canceled", err)
	}
	// ...so a retried sweep re-runs and succeeds.
	close(block)
	res, err := c.Run(context.Background(), "k", build, config(nil))
	if err != nil || res == nil || res.CPU != direct.CPU {
		t.Fatalf("retry after canceled runner: res=%v err=%v", res, err)
	}
	if hits, misses := c.Stats(); misses != 2 {
		t.Fatalf("stats = %d hits / %d misses, want 2 misses (canceled + retry)", hits, misses)
	}
}

// TestResultCacheJoinerOutlivesFirstCaller: the sweep that started a run
// is canceled after a second sweep joined it. The run belongs to both, so
// it goes on, the second sweep gets the record, and the run never sees
// the first sweep's cancellation.
func TestResultCacheJoinerOutlivesFirstCaller(t *testing.T) {
	build, config := adoreRun(t)
	direct, err := RunContext(context.Background(), build, config(nil))
	if err != nil {
		t.Fatal(err)
	}
	c := NewResultCache()
	started, release := make(chan struct{}), make(chan struct{})
	var first sync.Once
	hold := config(func() {
		first.Do(func() {
			close(started)
			<-release
		})
	})
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	errA := make(chan error, 1)
	go func() {
		_, err := c.Run(ctxA, "k", build, hold)
		errA <- err
	}()
	<-started
	type outcome struct {
		res *RunResult
		err error
	}
	second := make(chan outcome, 1)
	go func() {
		res, err := c.Run(context.Background(), "k", build, config(nil))
		second <- outcome{res, err}
	}()
	for hits, _ := c.Stats(); hits == 0; hits, _ = c.Stats() {
		runtime.Gosched()
	}
	cancelA()
	close(release)
	if got := <-second; got.err != nil || got.res == nil || got.res.CPU != direct.CPU {
		t.Fatalf("second sweep: res=%v err=%v, want the shared record", got.res, got.err)
	}
	if err := <-errA; err != nil {
		t.Fatalf("first sweep: %v", err)
	}
}

// TestResultCachePanicReleasesWaiters: a run that panics must release
// its waiters with an error and leave no entry, so they never strand.
func TestResultCachePanicReleasesWaiters(t *testing.T) {
	build, config := adoreRun(t)
	c := NewResultCache()
	entered := make(chan struct{})
	recovered := make(chan any, 1)
	die := config(func() {
		close(entered)
		for hits, _ := c.Stats(); hits == 0; hits, _ = c.Stats() {
			runtime.Gosched() // let the waiter join first
		}
		panic("runner died")
	})
	go func() {
		defer func() { recovered <- recover() }()
		c.Run(context.Background(), "k", build, die)
	}()
	<-entered
	if _, err := c.Run(context.Background(), "k", build, config(nil)); err == nil {
		t.Fatal("waiter of a panicked runner returned a nil error")
	}
	if p := <-recovered; p != "runner died" {
		t.Fatalf("runner recovered %v, want the run's panic", p)
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("cache holds %d entries after a panicked runner, want 0", n)
	}
}
