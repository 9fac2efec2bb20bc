package harness

import (
	"container/list"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compiler"
	"repro/internal/metrics"
	"repro/internal/program"
)

// The experiment engine: the paper's evaluation sweeps 17 benchmarks ×
// {O2, O3} × {base, ADORE}, and every run is hermetic (private code-segment
// copy, private memory, private hierarchy — see RunContext), so the sweeps
// are embarrassingly parallel. The engine schedules (compile, run) jobs on
// a bounded worker pool, deduplicates compiles through a single-flight
// build cache, and slots results by job index so output is deterministic
// regardless of completion order.

// Progress is one live event from an engine sweep, emitted when a job
// starts (Done false) and when it finishes (Done true).
type Progress struct {
	Sweep string // driver label ("fig7/O2", "table1", ...)
	Job   string // unit label ("mcf/adore")
	Index int    // job index within the sweep
	Total int    // jobs in the sweep
	Done  bool
	Err   error // non-nil on a finished, failed job
}

// EngineConfig sizes the experiment engine.
type EngineConfig struct {
	// Parallelism is the worker-pool width: 1 serializes, 0 uses
	// GOMAXPROCS. The cmd tools' -j flag maps straight onto it.
	Parallelism int

	// OnProgress, when set, observes every job start and finish. It is
	// invoked from worker goroutines and must be safe for concurrent use.
	OnProgress func(Progress)

	// Metrics, when set, instruments the engine on this registry: job and
	// worker telemetry, cache hit/miss counters, and per-job folds of the
	// simulated aggregates (see metrics.go for the semantics). Nil runs
	// the engine unmetered at no cost.
	Metrics *metrics.Registry

	// ResultCacheCap bounds the engine's result cache to this many
	// completed runs (LRU eviction past it). Zero keeps the cache
	// unbounded — right for one-shot sweeps, wrong for a long-lived
	// service, which is why adore-serve always sets it.
	ResultCacheCap int
}

// Engine runs experiment jobs on a worker pool with shared build and
// result caches. Error handling follows errgroup semantics: the first
// failure cancels the sweep's context, undispatched jobs are abandoned,
// and that first error is what the sweep returns.
type Engine struct {
	cfg     EngineConfig
	cache   *BuildCache
	results *ResultCache
	metrics engineMetrics
	drops   dropCounts
}

// NewEngine creates an engine with fresh caches. Share one engine across
// sweeps (as cmd/adore-bench does) to share them: Fig. 7(a), Table 1 and
// Fig. 11 all compile the same O2 kernels, and Table 2 re-runs Fig. 7's
// exact machine configurations.
func NewEngine(cfg EngineConfig) *Engine {
	e := &Engine{cfg: cfg, cache: NewBuildCache(), results: NewResultCacheBounded(cfg.ResultCacheCap)}
	e.metrics = newEngineMetrics(cfg.Metrics)
	e.metrics.workers.Set(int64(e.Parallelism()))
	r := cfg.Metrics
	e.cache.SetMetrics(
		r.Counter("adore_engine_build_cache_hits_total", "compiles served by the build cache"),
		r.Counter("adore_engine_build_cache_misses_total", "actual compiles"))
	e.results.SetMetrics(
		r.Counter("adore_engine_result_cache_hits_total", "runs served by the result cache"),
		r.Counter("adore_engine_result_cache_misses_total", "actual simulations"))
	return e
}

// Parallelism returns the effective worker count.
func (e *Engine) Parallelism() int {
	if e.cfg.Parallelism > 0 {
		return e.cfg.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Cache exposes the engine's shared build cache (for its hit counters).
func (e *Engine) Cache() *BuildCache { return e.cache }

// Results exposes the engine's shared result cache (for its hit counters).
func (e *Engine) Results() *ResultCache { return e.results }

func (e *Engine) report(p Progress) {
	if e.cfg.OnProgress != nil {
		e.cfg.OnProgress(p)
	}
}

// Map runs fn(i) for every i in [0, n) on the worker pool. Callers slot
// results into their own output by index, so result order is deterministic
// regardless of completion order. The first error cancels the context
// passed to the remaining jobs, stops dispatch, and is returned.
func (e *Engine) Map(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers := e.Parallelism()
	if workers > n {
		workers = n
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	next.Store(-1)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				if err := fn(ctx, i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// CompileSpec names one compilation unit for the build cache. Name must
// encode everything that shapes the kernel itself (for the experiment
// drivers: benchmark name and workload scale); Options covers the rest via
// its fingerprint.
type CompileSpec struct {
	Name    string
	Kernel  *compiler.Kernel
	Options compiler.Options
}

// Key returns the build-cache key for the spec.
func (s CompileSpec) Key() string { return s.Name + "|" + s.Options.Fingerprint() }

// Job pairs a compilation with one run of its result — the unit the engine
// schedules.
type Job struct {
	Name    string // display label for progress output
	Compile CompileSpec
	Config  RunConfig
}

// RunJobs executes the jobs on the worker pool and returns their results
// slotted by index: out[i] belongs to jobs[i] no matter which finished
// first. Jobs naming the same compile spec share one compile through the
// build cache.
func (e *Engine) RunJobs(ctx context.Context, sweep string, jobs []Job) ([]*RunResult, error) {
	out := make([]*RunResult, len(jobs))
	sweepStart := time.Now()
	err := e.Map(ctx, len(jobs), func(ctx context.Context, i int) error {
		j := &jobs[i]
		jobStart := time.Now()
		e.metrics.queueWait.Observe(uint64(jobStart.Sub(sweepStart)))
		e.metrics.jobsStarted.Inc()
		e.metrics.inflight.Inc()
		e.report(Progress{Sweep: sweep, Job: j.Name, Index: i, Total: len(jobs)})
		if j.Config.Metrics == nil {
			// A metered engine meters its jobs' controllers too. Metrics is
			// fingerprint-exempt, so this never splits result-cache entries.
			j.Config.Metrics = e.cfg.Metrics
		}
		build, err := e.cache.Build(j.Compile)
		if err == nil {
			if j.Config.OnOptimize == nil {
				// Hermetic, hook-free job: identical (build, config) pairs
				// share one simulation through the result cache. The key
				// includes the run fingerprint, so two configs differing in
				// anything observable — notably the prefetch policy — can
				// never alias.
				out[i], err = e.results.Run(ctx, j.Compile.Key(), build, j.Config)
			} else {
				out[i], err = RunContext(ctx, build, j.Config)
			}
		}
		elapsed := uint64(time.Since(jobStart))
		e.metrics.inflight.Dec()
		e.metrics.jobLatency.Observe(elapsed)
		e.metrics.workerBusy.Add(elapsed)
		if err != nil {
			e.metrics.jobsFailed.Inc()
		} else {
			e.metrics.jobsDone.Inc()
			e.foldResult(out[i])
		}
		e.report(Progress{Sweep: sweep, Job: j.Name, Index: i, Total: len(jobs), Done: true, Err: err})
		if err != nil {
			return fmt.Errorf("%s: %w", j.Name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RunJob schedules one job — the unit the serve front door submits per
// request — and returns its result. Identical to RunJobs with a
// single-element slice: the job shares the engine's build and result
// caches and its metrics with every other request in flight.
func (e *Engine) RunJob(ctx context.Context, sweep string, job Job) (*RunResult, error) {
	out, err := e.RunJobs(ctx, sweep, []Job{job})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// BuildCache is a single-flight cache of compiler builds keyed by
// CompileSpec.Key. Sharing one BuildResult between concurrent runs is safe
// because runs copy the code segment and never mutate the image.
//
// Builds whose kernels declare the same arrays (equal
// compiler.Kernel.DataKey) — the O2, O3 and profile-filtered O3 builds of
// one benchmark — share one sealed initial-data heap: each later build's
// image forks the first one's (program.Image.ShareData).
type BuildCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	data    map[string]*program.Image // first successful image per DataKey
	hits    atomic.Uint64
	misses  atomic.Uint64
	mHits   *metrics.Counter // optional live mirrors (SetMetrics)
	mMisses *metrics.Counter
}

type cacheEntry struct {
	ready chan struct{} // closed once build/err are set
	build *compiler.BuildResult
	err   error
}

// NewBuildCache returns an empty cache.
func NewBuildCache() *BuildCache {
	return &BuildCache{entries: map[string]*cacheEntry{}, data: map[string]*program.Image{}}
}

// SetMetrics mirrors the cache's hit/miss counters onto live metric
// counters (nil instruments are valid and free). Call before use.
func (c *BuildCache) SetMetrics(hits, misses *metrics.Counter) {
	c.mHits, c.mMisses = hits, misses
}

// Build returns the build for spec, compiling at most once per key no
// matter how many goroutines ask concurrently: latecomers block until the
// first caller's compile finishes and share its result (and error).
func (c *BuildCache) Build(spec CompileSpec) (*compiler.BuildResult, error) {
	key := spec.Key()
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		c.hits.Add(1)
		c.mHits.Inc()
		<-e.ready
		return e.build, e.err
	}
	e := &cacheEntry{ready: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()
	c.misses.Add(1)
	c.mMisses.Inc()
	e.build, e.err = compiler.Build(spec.Kernel, spec.Options)
	if e.err == nil {
		// Before ready closes, so no run of this build has called
		// NewMemory yet.
		dk := spec.Kernel.DataKey()
		c.mu.Lock()
		if src, ok := c.data[dk]; ok {
			e.build.Image.ShareData(src)
		} else {
			c.data[dk] = e.build.Image
		}
		c.mu.Unlock()
	}
	close(e.ready)
	return e.build, e.err
}

// Stats reports cache effectiveness: hits are requests served by an
// existing or in-flight compile, misses are actual compiles.
func (c *BuildCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// ResultCache is a single-flight cache of completed runs, keyed by the
// compile key plus the RunConfig fingerprint. It holds run records, not
// machines: every result it hands out — the first caller's included — has
// nil FinalMemory, Arch, Code and Controller, so one entry costs its
// counters, series and observability outputs rather than a whole memory
// image and trace pool. Sharing a *RunResult between jobs is safe for the
// engine's callers, which treat results as read-only; differential and
// hook-carrying runs, which need the machine, go through RunContext
// directly.
//
// An optional capacity (NewResultCacheBounded) turns the cache into an
// LRU: completed entries beyond the bound are evicted oldest-touched
// first, which is what a long-lived process (adore-serve) needs — the
// unbounded form grows forever under a diverse query mix. In-flight
// entries are never evicted: their waiters hold the entry pointer, and
// evicting one would let a concurrent identical request start a duplicate
// simulation.
type ResultCache struct {
	mu        sync.Mutex
	entries   map[string]*resultEntry
	order     *list.List // completed keys, least-recently touched at the front (bounded mode only)
	capacity  int        // 0 = unbounded
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	mHits     *metrics.Counter // optional live mirrors (SetMetrics)
	mMisses   *metrics.Counter

	// runFn performs the simulation; tests substitute a controllable
	// runner to pin the single-flight edge cases (stranded waiters,
	// panicking runners) without real workloads.
	runFn func(context.Context, *compiler.BuildResult, RunConfig) (*RunResult, error)
}

type resultEntry struct {
	ready chan struct{} // closed once res/err are set
	res   *RunResult
	err   error
	elem  *list.Element // the key's place in order once completed (bounded mode)
}

// NewResultCache returns an empty, unbounded cache.
func NewResultCache() *ResultCache {
	return &ResultCache{entries: map[string]*resultEntry{}, runFn: RunContext}
}

// NewResultCacheBounded returns an empty cache holding at most capacity
// completed results, evicting least-recently-touched entries beyond it.
// A capacity <= 0 is unbounded.
func NewResultCacheBounded(capacity int) *ResultCache {
	c := NewResultCache()
	if capacity > 0 {
		c.capacity = capacity
		c.order = list.New()
	}
	return c
}

// SetMetrics mirrors the cache's hit/miss counters onto live metric
// counters (nil instruments are valid and free). Call before use.
func (c *ResultCache) SetMetrics(hits, misses *metrics.Counter) {
	c.mHits, c.mMisses = hits, misses
}

// Run returns the record of simulating build under cfg, running each
// distinct (compileKey, cfg.Fingerprint()) pair at most once no matter how
// many goroutines ask concurrently. A failed run is handed to its waiters
// but evicted from the cache, so a later retry (e.g. after a canceled
// sweep) re-runs instead of replaying a stale context error. Waiters block
// on the in-flight run OR their own context — a waiter whose context fires
// returns immediately instead of stranding on a runner that never
// finishes — and a panicking runner releases its waiters (with an error in
// the entry) before the panic propagates.
func (c *ResultCache) Run(ctx context.Context, compileKey string, build *compiler.BuildResult, cfg RunConfig) (*RunResult, error) {
	key := compileKey + "|" + cfg.Fingerprint()
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.elem != nil {
			c.order.MoveToBack(e.elem)
		}
		c.mu.Unlock()
		c.hits.Add(1)
		c.mHits.Inc()
		select {
		case <-e.ready:
			return e.res, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e := &resultEntry{ready: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()
	c.misses.Add(1)
	c.mMisses.Inc()

	finished := false
	defer func() {
		if !finished {
			// The runner panicked. Evict the entry and release the waiters
			// with an error before the panic unwinds, so nobody strands on
			// a ready channel that would otherwise never close.
			e.err = fmt.Errorf("harness: result-cache runner for %s died", key)
			c.mu.Lock()
			delete(c.entries, key)
			c.mu.Unlock()
			close(e.ready)
		}
	}()
	e.res, e.err = c.runFn(ctx, build, cfg)
	finished = true
	c.mu.Lock()
	if e.err != nil {
		delete(c.entries, key)
	} else {
		e.res.FinalMemory, e.res.Arch, e.res.Code, e.res.Controller = nil, nil, nil, nil
		c.completeLocked(key, e)
	}
	c.mu.Unlock()
	close(e.ready)
	return e.res, e.err
}

// completeLocked records a freshly completed entry as most recently used
// and evicts past capacity (bounded mode; no-op otherwise).
func (c *ResultCache) completeLocked(key string, e *resultEntry) {
	if c.capacity == 0 {
		return
	}
	e.elem = c.order.PushBack(key)
	for c.order.Len() > c.capacity {
		victim := c.order.Remove(c.order.Front()).(string)
		delete(c.entries, victim)
		c.evictions.Add(1)
	}
}

// Stats reports cache effectiveness: hits are requests served by an
// existing or in-flight run, misses are actual simulations.
func (c *ResultCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Evictions reports how many completed results the bounded mode dropped.
func (c *ResultCache) Evictions() uint64 { return c.evictions.Load() }

// Len reports the number of cached (and in-flight) entries.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
