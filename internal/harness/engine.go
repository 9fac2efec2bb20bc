package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/flight"
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
	Sweep string // driver label ("fig7/O2", "table1/profile", ...)
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

	// NoResultCache runs the engine without a result cache: hook-free
	// jobs simulate directly, like hooked ones. adore-serve sets it,
	// because its response cache already keeps every answer; one-shot
	// sweeps keep the cache, which shares runs between experiments.
	NoResultCache bool
}

// Engine runs experiment jobs on a worker pool with shared build and
// result caches. Error handling follows errgroup semantics: the first
// failure cancels the sweep's context, undispatched jobs are abandoned,
// and that first error is what the sweep returns.
//
// The pool's width is the engine's, not each sweep's: every worker holds
// one of Parallelism() slots while it runs jobs, so concurrent sweeps on
// one engine — adore-serve's requests — together never run more jobs
// than that.
type Engine struct {
	cfg     EngineConfig
	slots   chan struct{} // one token per busy worker, Parallelism() wide
	cache   *BuildCache
	results *ResultCache // nil under NoResultCache
	metrics engineMetrics
	drops   dropCounts
}

// NewEngine creates an engine with fresh caches. Share one engine across
// sweeps (as cmd/adore-bench does) to share them: Fig. 7(a), Table 1 and
// Fig. 11 all compile the same O2 kernels, and Table 2 re-runs Fig. 7's
// exact machine configurations.
func NewEngine(cfg EngineConfig) *Engine {
	e := &Engine{cfg: cfg, cache: NewBuildCache()}
	e.slots = make(chan struct{}, e.Parallelism())
	e.metrics = newEngineMetrics(cfg.Metrics)
	e.metrics.workers.Set(int64(e.Parallelism()))
	r := cfg.Metrics
	e.cache.SetMetrics(
		r.Counter("adore_engine_build_cache_hits_total", "compiles served by the build cache"),
		r.Counter("adore_engine_build_cache_misses_total", "actual compiles"))
	if !cfg.NoResultCache {
		e.results = NewResultCache()
		e.results.SetMetrics(
			r.Counter("adore_engine_result_cache_hits_total", "runs served by the result cache"),
			r.Counter("adore_engine_result_cache_misses_total", "actual simulations"))
	}
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

// Results exposes the engine's shared result cache (for its hit
// counters); nil under NoResultCache.
func (e *Engine) Results() *ResultCache { return e.results }

func (e *Engine) report(p Progress) {
	if e.cfg.OnProgress != nil {
		e.cfg.OnProgress(p)
	}
}

// each runs fn(i) for every i in [0, n) on the worker pool; it is the
// pool under each of RunJobs' phases. Callers slot results into their
// own output by index, so result order is deterministic regardless of
// completion order. The first error cancels the context passed to the
// remaining jobs, stops dispatch, and is returned.
//
// Each worker holds one of the engine's slots, shared with every other
// call in flight, from its first job to its last, so the sweeps that got
// slots first finish first. fn must not call each itself.
func (e *Engine) each(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
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
			select {
			case e.slots <- struct{}{}:
			case <-ctx.Done():
				fail(ctx.Err())
				return
			}
			defer func() { <-e.slots }()
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
	// Build, when set, is Compile's build, already made through this
	// engine's build cache (Cache().Build), and the job runs it without a
	// second lookup. A driver that reads the builds its jobs ran sets it.
	// Compile still keys the job's fork group and result-cache entry.
	Build *compiler.BuildResult
}

// RunJobs executes the jobs on the worker pool and returns their results
// slotted by index: out[i] belongs to jobs[i] no matter which finished
// first. Jobs naming the same compile spec share one compile through the
// build cache.
//
// It is the engine's one scheduler, and it forks where it can (DESIGN.md
// §16): ADORE jobs whose configurations differ only in prefetch
// policy/selector (and share a compile) form fork groups. Each group's
// first member runs as the probe — a full run that also captures the
// divergence-point snapshot — with every other member attached as a
// lockstep shadow (core.Shadow). A member whose decisions all matched its
// leader's is merged: it completes as its own engine job, served the
// leader's run with its own controller statistics, after the leader
// finishes. The members that diverged resume from the group's one
// snapshot in rounds. Members that first diverged from the same leader at
// the same decision with the same outcome may still share a path, so one
// of them leads and the rest shadow it; the others are known to decide
// differently and lead in parallel. Whoever diverges from a round's leader
// waits for the next round. An observed member never merges
// (core.Controller.AddShadow), so it leads its own continuation. A group
// without a snapshot made no policy decision, so its members merge with
// the probe; one left over anyway (it is observed, or its policy does not
// resolve and it reports its own error) runs straight.
//
// Every job that forms no group of two — a non-ADORE, hooked or
// CaptureDear job, or a lone ADORE configuration — takes runJob's default
// dispatch, so a sweep without groups (every paper driver's) runs each job
// once, in index order, exactly as a plain pool would. Results are
// bit-identical to running every job straight. Probes, un-grouped jobs,
// each round's leaders and the merged members run on the worker pool in
// that order, each phase behind the previous one's barrier. Continuations
// and merged members bypass the result cache (their results are still
// hermetic, but the probe path must run to produce the snapshot).
func (e *Engine) RunJobs(ctx context.Context, sweep string, jobs []Job) ([]*RunResult, *ForkStats, error) {
	type group struct {
		members []int // job indices; members[0] is the probe
		snap    *ForkSnapshot
	}
	groups := map[string]*group{}
	groupOf := make([]*group, len(jobs))
	var order []*group
	for i := range jobs {
		if !forkable(jobs[i].Config) {
			continue
		}
		key := jobs[i].Compile.Key() + "|" + forkPrefixFingerprint(jobs[i].Config)
		g := groups[key]
		if g == nil {
			g = &group{}
			groups[key] = g
			order = append(order, g)
		}
		g.members = append(g.members, i)
		groupOf[i] = g
	}

	// A rider is a group member that shadowed leader's run: merged with
	// it at the end, or waiting for a run of its own.
	type rider struct {
		job, leader int
		shadow      *core.Shadow
	}
	var (
		out       = make([]*RunResult, len(jobs))
		sims      = make([]func(context.Context, *compiler.BuildResult, RunConfig) (*RunResult, error), len(jobs))
		followers = make([][]int, len(jobs))          // job indices each leader drives as shadows
		shadows   = make([][]*core.Shadow, len(jobs)) // and their deciders once its run ends
	)
	// lead builds the simulation of job i driving the given group-mates as
	// shadows: a probe capturing g's snapshot, or a continuation resumed
	// from it.
	lead := func(i int, g *group, resume *ForkSnapshot, others []int) {
		cfgs := make([]core.Config, len(others))
		for k, j := range others {
			cfgs[k] = jobs[j].Config.Core
		}
		followers[i] = others
		sims[i] = func(ctx context.Context, build *compiler.BuildResult, cfg RunConfig) (*RunResult, error) {
			var res *RunResult
			var err error
			if resume == nil {
				var snap *ForkSnapshot
				res, snap, err = runForkProbe(ctx, build.Image, cfg, ForkDivergence, cfgs)
				g.snap = snap // nil when no boundary was eligible
			} else {
				res, err = runImage(ctx, build.Image, cfg, nil, resume, cfgs)
			}
			if err != nil {
				return nil, err
			}
			shadows[i] = res.Controller.Shadows()
			return res, nil
		}
	}
	sweepStart := time.Now()
	var merged, waiting []rider
	runPhase := func(phase []int) error {
		if len(phase) == 0 {
			return nil
		}
		err := e.each(ctx, len(phase), func(ctx context.Context, k int) error {
			i := phase[k]
			var err error
			out[i], err = e.runJob(ctx, sweep, sweepStart, jobs, i, sims[i])
			return err
		})
		for _, i := range phase {
			for k, sh := range shadows[i] {
				r := rider{followers[i][k], i, sh}
				if sh.Merged() {
					merged = append(merged, r)
				} else {
					waiting = append(waiting, r)
				}
			}
		}
		return err
	}

	// Phase A: probes, each shadowed by its group-mates, plus every
	// un-grouped job. A lone policy shares nothing and runs straight.
	var phase []int
	for i := range jobs {
		g := groupOf[i]
		switch {
		case g == nil || len(g.members) == 1:
			phase = append(phase, i)
		case g.members[0] == i:
			lead(i, g, nil, g.members[1:])
			phase = append(phase, i)
		}
	}
	if err := runPhase(phase); err != nil {
		return nil, nil, err
	}

	// Continuation rounds: one leader per class of waiting members that
	// may share a path; the rest of its class shadow it.
	forked := 0
	for len(waiting) > 0 {
		var classes [][]rider
	next:
		for _, w := range waiting {
			for k, c := range classes {
				if c[0].leader == w.leader && c[0].shadow.SamePath(w.shadow) {
					classes[k] = append(c, w)
					continue next
				}
			}
			classes = append(classes, []rider{w})
		}
		waiting, phase = nil, phase[:0]
		for _, c := range classes {
			g := groupOf[c[0].job]
			if g.snap == nil {
				for _, r := range c {
					phase = append(phase, r.job) // straight
				}
				continue
			}
			others := make([]int, len(c)-1)
			for k, r := range c[1:] {
				others[k] = r.job
			}
			lead(c[0].job, g, g.snap, others)
			phase = append(phase, c[0].job)
			forked++
		}
		if err := runPhase(phase); err != nil {
			return nil, nil, err
		}
	}

	// Merged members, each served its leader's finished run.
	phase = phase[:0]
	for _, r := range merged {
		r := r
		sims[r.job] = func(context.Context, *compiler.BuildResult, RunConfig) (*RunResult, error) {
			return mergedResult(out[r.leader], r.shadow), nil
		}
		phase = append(phase, r.job)
	}
	if err := runPhase(phase); err != nil {
		return nil, nil, err
	}

	stats := &ForkStats{ForkedRuns: forked, MergedRuns: len(merged)}
	stats.StraightRuns = len(jobs) - forked - len(merged)
	for _, g := range order {
		if g.snap == nil {
			continue
		}
		stats.Groups++
		stats.WarmupForked += g.snap.Cycle
		stats.WarmupStraight += uint64(len(g.members)) * g.snap.Cycle
	}
	return out, stats, nil
}

// runJob runs jobs[i] with RunJobs' per-job bookkeeping: queue-wait,
// started/in-flight, progress reports, Metrics defaulting, the build,
// latency/busy time, the result fold and the done report. sim, when
// non-nil, simulates the job in place of the default dispatch — the fork
// groups' probes, continuations and merged members. The default sends a
// hook-free job through the result cache, on an engine that has one, and
// any other job straight to RunContext.
func (e *Engine) runJob(ctx context.Context, sweep string, sweepStart time.Time, jobs []Job, i int,
	sim func(context.Context, *compiler.BuildResult, RunConfig) (*RunResult, error)) (*RunResult, error) {
	j := &jobs[i]
	jobStart := time.Now()
	e.metrics.queueWait.Observe(uint64(jobStart.Sub(sweepStart)))
	e.metrics.jobsStarted.Inc()
	e.metrics.inflight.Inc()
	e.report(Progress{Sweep: sweep, Job: j.Name, Index: i, Total: len(jobs)})
	cfg := j.Config // a copy: the caller's jobs stay untouched
	if cfg.Metrics == nil {
		// A metered engine meters its jobs' controllers too. Metrics is
		// fingerprint-exempt, so this never splits result-cache entries.
		cfg.Metrics = e.cfg.Metrics
	}
	var res *RunResult
	build, err := j.Build, error(nil)
	if build == nil {
		build, err = e.cache.Build(j.Compile)
	}
	if err == nil {
		switch {
		case sim != nil:
			res, err = sim(ctx, build, cfg)
		case cfg.OnOptimize == nil && e.results != nil:
			// Hermetic, hook-free job: identical (build, config) pairs
			// share one simulation through the result cache. The key
			// includes the run fingerprint, so two configs differing
			// in anything observable — notably the prefetch policy —
			// can never alias.
			res, err = e.results.Run(ctx, j.Compile.Key(), build, cfg)
		default:
			res, err = RunContext(ctx, build, cfg)
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
		e.foldResult(res)
	}
	e.report(Progress{Sweep: sweep, Job: j.Name, Index: i, Total: len(jobs), Done: true, Err: err})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", j.Name, err)
	}
	return res, nil
}

// BuildCache is a single-flight cache of compiler builds keyed by
// CompileSpec.Key. Sharing one BuildResult between concurrent runs is safe
// because runs copy the code segment and never mutate the image. A failed
// compile is not cached.
//
// Builds whose kernels declare the same arrays (equal
// compiler.Kernel.DataKey) — the O2, O3 and profile-filtered O3 builds of
// one benchmark — share one sealed initial-data heap: each later build's
// image forks the first one's (program.Image.ShareData).
//
// The cache holds at most buildCacheCap builds, evicting the least
// recently used beyond it, so a long-lived process that compiles every
// scale it is asked for stays bounded. A rebuilt key shares its kernel's
// heap again: the heap is kept per DataKey, which is independent of scale.
type BuildCache struct {
	flight *flight.Cache[*compiler.BuildResult]
	mu     sync.Mutex
	data   map[string]*program.Image // first successful image per DataKey
}

// buildCacheCap bounds the build cache. One engine's paper sweeps compile
// at most 51 builds (17 benchmarks at O2, O3 and profile-filtered O3).
const buildCacheCap = 256

// NewBuildCache returns an empty cache.
func NewBuildCache() *BuildCache {
	return &BuildCache{flight: flight.New[*compiler.BuildResult](buildCacheCap), data: map[string]*program.Image{}}
}

// SetMetrics mirrors the cache's hit/miss counters onto live metric
// counters (nil instruments are valid and free). Call before use.
func (c *BuildCache) SetMetrics(hits, misses *metrics.Counter) {
	c.flight.SetMetrics(flight.Metrics{Hits: hits, Misses: misses})
}

// Build returns the build for spec, compiling at most once per key no
// matter how many goroutines ask concurrently: latecomers block until the
// first caller's compile finishes and share its result.
func (c *BuildCache) Build(spec CompileSpec) (*compiler.BuildResult, error) {
	build, _, err := c.flight.Do(context.Background(), spec.Key(), func(context.Context) (*compiler.BuildResult, error) {
		build, err := compiler.Build(spec.Kernel, spec.Options)
		if err != nil {
			return nil, err
		}
		// Before the build is published, so no run of it has called
		// NewMemory yet.
		dk := spec.Kernel.DataKey()
		c.mu.Lock()
		if src, ok := c.data[dk]; ok {
			build.Image.ShareData(src)
		} else {
			c.data[dk] = build.Image
		}
		c.mu.Unlock()
		return build, nil
	})
	return build, err
}

// Stats reports cache effectiveness: hits are requests served by an
// existing or in-flight compile, misses are actual compiles.
func (c *BuildCache) Stats() (hits, misses uint64) {
	s := c.flight.Stats()
	return s.Hits, s.Misses
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
// The cache is unbounded: it lives as long as one process's sweeps. A
// long-lived service runs its engine without one (NoResultCache).
type ResultCache struct {
	flight *flight.Cache[*RunResult]
}

// NewResultCache returns an empty cache.
func NewResultCache() *ResultCache { return &ResultCache{flight: flight.New[*RunResult](0)} }

// SetMetrics mirrors the cache's hit/miss counters onto live metric
// counters (nil instruments are valid and free). Call before use.
func (c *ResultCache) SetMetrics(hits, misses *metrics.Counter) {
	c.flight.SetMetrics(flight.Metrics{Hits: hits, Misses: misses})
}

// Run returns the record of simulating build under cfg, running each
// distinct (compileKey, cfg.Fingerprint()) pair at most once no matter how
// many goroutines ask concurrently. The simulation runs until its last
// waiter gives up (flight.Cache.Do); a failed run is handed to its waiters
// but not cached, so a later retry (e.g. after a canceled sweep) re-runs
// instead of replaying a stale context error.
func (c *ResultCache) Run(ctx context.Context, compileKey string, build *compiler.BuildResult, cfg RunConfig) (*RunResult, error) {
	res, _, err := c.flight.Do(ctx, compileKey+"|"+cfg.Fingerprint(), func(ctx context.Context) (*RunResult, error) {
		res, err := RunContext(ctx, build, cfg)
		if err != nil {
			return nil, err
		}
		res.FinalMemory, res.Arch, res.Code, res.Controller = nil, nil, nil, nil
		return res, nil
	})
	return res, err
}

// Stats reports cache effectiveness: hits are requests served by an
// existing or in-flight run, misses are actual simulations.
func (c *ResultCache) Stats() (hits, misses uint64) {
	s := c.flight.Stats()
	return s.Hits, s.Misses
}

// Len reports the number of cached (and in-flight) entries.
func (c *ResultCache) Len() int { return c.flight.Len() }
