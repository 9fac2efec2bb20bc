package harness

import (
	"sync/atomic"

	"repro/internal/metrics"
)

// Engine telemetry: the host-side view of an experiment sweep — jobs,
// worker utilization, cache effectiveness — plus per-job folds of the
// simulated aggregates each finished RunResult carries.
//
// Two semantics coexist deliberately:
//
//   - adore_engine_* metrics count host work: a result-cache hit is a
//     job that started and finished but simulated nothing.
//   - adore_sim_* / adore_mem_* metrics count work SERVED: they fold the
//     RunResult of every finished job, so a cache hit folds the cached
//     result again. That makes the sim totals proportional to what the
//     sweep consumed, not to what the simulator executed — the view a
//     throughput dashboard wants. (The live adore_core_* counters from
//     core.Telemetry are the execution-side complement: cache hits
//     contribute nothing there.)
//
// All instruments are nil when the engine has no registry, making every
// recording below a no-op (the internal/metrics contract).

// engineMetrics holds the engine's instruments.
type engineMetrics struct {
	jobsStarted *metrics.Counter
	jobsDone    *metrics.Counter
	jobsFailed  *metrics.Counter
	inflight    *metrics.Gauge
	workers     *metrics.Gauge
	queueWait   *metrics.Histogram
	jobLatency  *metrics.Histogram
	workerBusy  *metrics.Counter

	simCycles    *metrics.Counter
	simInsts     *metrics.Counter
	simLoads     *metrics.Counter
	simLoadStall *metrics.Counter

	memL1DMiss *metrics.Counter
	memL2Miss  *metrics.Counter
	memL3Miss  *metrics.Counter
	pfIssued   *metrics.Counter
	pfUseful   *metrics.Counter
	pfLate     *metrics.Counter
	pfUnused   *metrics.Counter

	obsDropped     *metrics.Counter
	samplesDropped *metrics.Counter
}

// newEngineMetrics registers the engine's metric set on r (nil-safe).
func newEngineMetrics(r *metrics.Registry) engineMetrics {
	return engineMetrics{
		jobsStarted: r.Counter("adore_engine_jobs_started_total", "experiment jobs dispatched to workers"),
		jobsDone:    r.Counter("adore_engine_jobs_completed_total", "experiment jobs finished successfully"),
		jobsFailed:  r.Counter("adore_engine_jobs_failed_total", "experiment jobs that returned an error"),
		inflight:    r.Gauge("adore_engine_jobs_inflight", "jobs currently executing on workers"),
		workers:     r.Gauge("adore_engine_workers", "worker-pool width"),
		queueWait:   r.Histogram("adore_engine_queue_wait_ns", "sweep start to job dispatch"),
		jobLatency:  r.Histogram("adore_engine_job_latency_ns", "job dispatch to completion"),
		workerBusy:  r.Counter("adore_engine_worker_busy_ns_total", "cumulative worker time spent in jobs"),

		simCycles:    r.Counter("adore_sim_cycles_total", "simulated cycles served (cache hits re-count)"),
		simInsts:     r.Counter("adore_sim_instructions_total", "simulated instructions served"),
		simLoads:     r.Counter("adore_sim_loads_total", "simulated loads served"),
		simLoadStall: r.Counter("adore_sim_load_stall_cycles_total", "simulated load-stall cycles served"),

		memL1DMiss: r.Counter("adore_mem_l1d_misses_total", "L1D misses across served runs"),
		memL2Miss:  r.Counter("adore_mem_l2_misses_total", "L2 misses across served runs"),
		memL3Miss:  r.Counter("adore_mem_l3_misses_total", "L3 misses across served runs"),
		pfIssued:   r.Counter("adore_mem_prefetch_issued_total", "lfetches issued across served runs"),
		pfUseful:   r.Counter("adore_mem_prefetch_useful_total", "prefetched lines first-used by a demand access"),
		pfLate:     r.Counter("adore_mem_prefetch_late_total", "demand accesses that hit an in-flight prefetch"),
		pfUnused:   r.Counter("adore_mem_prefetch_unused_total", "prefetched lines evicted untouched"),

		obsDropped:     r.Counter("adore_obs_events_dropped_total", "recorder ring overwrites across served runs"),
		samplesDropped: r.Counter("adore_sim_samples_dropped_total", "PMU samples lost to unhandled SSB overflows"),
	}
}

// dropCounts accumulates the two loss signals independently of the metric
// registry, so adore-bench can put them in its output _meta (and warn)
// even when no registry is configured.
type dropCounts struct {
	obsEvents atomic.Uint64
	samples   atomic.Uint64
}

// foldResult folds one finished job's simulated aggregates into the
// engine's metrics and drop accumulators.
func (e *Engine) foldResult(res *RunResult) {
	if res == nil {
		return
	}
	m := &e.metrics
	m.simCycles.Add(res.CPU.Cycles)
	m.simInsts.Add(res.CPU.Retired)
	m.simLoads.Add(res.CPU.Loads)
	m.simLoadStall.Add(res.CPU.LoadStalls)
	m.memL1DMiss.Add(res.Mem.L1D.Misses)
	m.memL2Miss.Add(res.Mem.L2.Misses)
	m.memL3Miss.Add(res.Mem.L3.Misses)
	pf := res.Mem.Prefetch()
	m.pfIssued.Add(pf.Issued)
	m.pfUseful.Add(pf.Useful)
	m.pfLate.Add(pf.Late)
	m.pfUnused.Add(pf.EvictedUnused)
	if res.Obs != nil && res.Obs.Dropped > 0 {
		m.obsDropped.Add(res.Obs.Dropped)
		e.drops.obsEvents.Add(res.Obs.Dropped)
	}
	if res.Core != nil && res.Core.SamplesDropped > 0 {
		m.samplesDropped.Add(res.Core.SamplesDropped)
		e.drops.samples.Add(res.Core.SamplesDropped)
	}
}

// Drops reports the loss signals accumulated over every job this engine
// served: observability ring overwrites and PMU samples lost to
// unhandled SSB overflows. Nonzero values mean some recorded stream is
// incomplete — adore-bench surfaces them in its output _meta and warns.
func (e *Engine) Drops() (obsEvents, samples uint64) {
	return e.drops.obsEvents.Load(), e.drops.samples.Load()
}
