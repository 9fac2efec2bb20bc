// adore-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	adore-bench [-exp fig7a|fig7b|table1|table2|fig8|fig9|fig10|fig11|policymatrix|all] [-scale 1.0] [-j 0] [-json]
//	adore-bench ... [-cpuprofile cpu.prof] [-memprofile mem.prof]
//	adore-bench ... [-metrics-addr :8123] [-linger 30s]
//
// Each experiment prints the same rows/series the paper reports; see
// EXPERIMENTS.md for the paper-vs-measured comparison. Sweeps run on the
// experiment engine: -j sets the worker-pool width (0 = all cores,
// 1 = serial), one build cache is shared across all selected experiments,
// and ^C cancels in-flight simulations cleanly.
//
// The policy matrix runs on the checkpoint/fork engine (DESIGN.md §16):
// each benchmark's policy columns share one warmup. Its text output ends
// with a "fork engine:" line, and -json adds the throughput summary as a
// "_fork" block (BENCH_fork.json is one). One observed ADORE run with its
// event stream exported is adore-run's job (adore-run -trace and
// -events).
//
// -metrics-addr serves live telemetry while the sweeps run — Prometheus
// text on /metrics, per-sweep progress JSON on /status, and the Go
// runtime profiler on /debug/pprof — and -linger keeps the endpoint up
// after completion for polling scrapers. See DESIGN.md §15.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"repro"
	"repro/cmd/internal/cli"
	"repro/internal/compiler"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/serve"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: fig7a fig7b table1 table2 fig8 fig9 fig10 fig11 policymatrix all")
	scale := flag.Float64("scale", 1.0, "workload scale factor (1.0 = full runs)")
	jobs := flag.Int("j", 0, "parallel jobs (0 = one per core, 1 = serial)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of text")
	progress := flag.Bool("progress", true, "print live per-job progress to stderr")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /status and /debug/pprof on this address while running (e.g. :8123)")
	linger := flag.Duration("linger", 0, "keep the -metrics-addr endpoint up this long after the sweeps finish")
	flag.Parse()

	// Host profiling of the simulator itself (DESIGN.md §12): profiles are
	// written on the normal exit paths; a run that dies via cli.Fatal exits
	// the process and leaves no (CPU) or no fresh (heap) profile behind.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		cli.Fatal(err)
		cli.Fatal(pprof.StartCPUProfile(f))
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			cli.Fatal(err)
			runtime.GC() // flush unreached garbage so the profile shows live heap
			cli.Fatal(pprof.WriteHeapProfile(f))
			cli.Fatal(f.Close())
		}()
	}

	ctx := cli.Context()

	status := serve.NewStatusTracker()
	var jobsDone atomic.Int64
	onProgress := func(p harness.Progress) {
		status.Progress(p)
		if !*progress {
			return
		}
		if p.Done && p.Err == nil {
			fmt.Fprintf(os.Stderr, "  [%3d done] %s %s (%d/%d)\n",
				jobsDone.Add(1), p.Sweep, p.Job, p.Index+1, p.Total)
		}
	}
	var reg *metrics.Registry
	if *metricsAddr != "" {
		reg = metrics.NewRegistry()
		shutdown, err := serveMetrics(ctx, *metricsAddr, reg, status, *linger)
		cli.Fatal(err)
		defer shutdown()
	}
	eng := harness.NewEngine(harness.EngineConfig{Parallelism: *jobs, OnProgress: onProgress, Metrics: reg})

	cfg := harness.DefaultExpConfig()
	cfg.Scale = *scale
	cfg.Engine = eng

	start := time.Now()
	results := map[string]any{}
	elapsed := map[string]float64{}
	matched := 0
	run := func(name string, f func(context.Context) (renderer, error)) {
		if *exp != "all" && *exp != name {
			return
		}
		matched++
		expStart := time.Now()
		out, err := f(ctx)
		if err != nil {
			cli.Fatal(fmt.Errorf("%s: %w", name, err))
		}
		elapsed[name] = time.Since(expStart).Seconds()
		if *jsonOut {
			results[name] = out
			return
		}
		fmt.Printf("== %s (%.1fs) ==\n%s\n", name, elapsed[name], out.Render())
	}

	run("fig7a", func(ctx context.Context) (renderer, error) {
		r, err := harness.RunFig7Context(ctx, cfg, compiler.O2)
		return r, err
	})
	run("fig7b", func(ctx context.Context) (renderer, error) {
		r, err := harness.RunFig7Context(ctx, cfg, compiler.O3)
		return r, err
	})
	run("table1", func(ctx context.Context) (renderer, error) {
		r, err := harness.RunTable1Context(ctx, cfg)
		return r, err
	})
	run("table2", func(ctx context.Context) (renderer, error) {
		r, err := harness.RunTable2Context(ctx, cfg)
		return r, err
	})
	run("fig8", func(ctx context.Context) (renderer, error) {
		r, err := harness.RunSeriesContext(ctx, cfg, "art")
		return r, err
	})
	run("fig9", func(ctx context.Context) (renderer, error) {
		r, err := harness.RunSeriesContext(ctx, cfg, "mcf")
		return r, err
	})
	run("fig10", func(ctx context.Context) (renderer, error) {
		r, err := harness.RunFig10Context(ctx, cfg)
		return r, err
	})
	run("fig11", func(ctx context.Context) (renderer, error) {
		r, err := harness.RunFig11Context(ctx, cfg)
		return r, err
	})
	var forkStats *harness.ForkStats
	run("policymatrix", func(ctx context.Context) (renderer, error) {
		r, stats, err := harness.RunPolicyMatrixForkedContext(ctx, cfg)
		forkStats = stats
		return r, err
	})

	if matched == 0 {
		cli.Fatal(fmt.Errorf("unknown experiment %q (want fig7a fig7b table1 table2 fig8 fig9 fig10 fig11 policymatrix all)", *exp))
	}

	if forkStats != nil && !*jsonOut {
		fmt.Printf("fork engine: %d groups, %d forked runs, %d merged runs, %d straight runs, warmup %d -> %d cycles (%.1fx reduction)\n",
			forkStats.Groups, forkStats.ForkedRuns, forkStats.MergedRuns, forkStats.StraightRuns,
			forkStats.WarmupStraight, forkStats.WarmupForked, forkStats.WarmupReduction())
	}

	hits, misses := eng.Cache().Stats()
	rhits, rmisses := eng.Results().Stats()
	obsDropped, samplesDropped := reportDrops(eng)
	if *jsonOut {
		if forkStats != nil {
			results["_fork"] = forkSummary(*scale, forkStats)
		}
		results["_meta"] = map[string]any{
			"scale":              *scale,
			"parallelism":        eng.Parallelism(),
			"policies":           adore.Policies(),
			"build_cache_hits":   hits,
			"build_cache_miss":   misses,
			"result_cache_hits":  rhits,
			"result_cache_miss":  rmisses,
			"obs_events_dropped": obsDropped,
			"samples_dropped":    samplesDropped,
			"elapsed_seconds":    elapsed,
			"total_seconds":      time.Since(start).Seconds(),
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		cli.Fatal(enc.Encode(results))
		return
	}
	fmt.Printf("engine: %d workers, %d compiles (%d reused from cache), %d runs (%d reused), %.1fs total\n",
		eng.Parallelism(), misses, hits, rmisses, rhits, time.Since(start).Seconds())
}

// renderer is any experiment result that can print itself as text.
type renderer interface{ Render() string }

// forkSummary shapes one forked sweep's throughput numbers for JSON
// output, with the methodology the numbers are only meaningful under.
func forkSummary(scale float64, s *harness.ForkStats) map[string]any {
	return map[string]any{
		"experiment":             "policymatrix",
		"scale":                  scale,
		"groups":                 s.Groups,
		"forked_runs":            s.ForkedRuns,
		"merged_runs":            s.MergedRuns,
		"straight_runs":          s.StraightRuns,
		"warmup_cycles_straight": s.WarmupStraight,
		"warmup_cycles_forked":   s.WarmupForked,
		"warmup_reduction":       s.WarmupReduction(),
		"methodology": []string{
			"The policy-matrix sweep runs every workload at O2 under each prefetch-policy column (base, the registered policies, the runtime selector); all ADORE columns of one workload execute an identical simulation prefix up to the run's first policy-dependent decision.",
			"A fork group is the set of ADORE jobs sharing a compile key and a policy-neutral config fingerprint; its first member runs as the probe, capturing a whole-machine snapshot (CPU, memory, caches, MSHRs, PMU, controller, code image) at the policy-divergence point.",
			"The probe carries every other group member as a lockstep shadow: at each policy point a shadow makes its own pick and optimizes its own copy of each loop trace, and stays merged while its optimized traces and results equal the probe's. merged_runs counts the members served their leader's run (with their own selector bookkeeping) without simulating.",
			"forked_runs counts the continuations resumed from the group's one snapshot: the members that diverged run in rounds, one leader per distinct first divergence (decision and outcome) with the members that share it as its shadows. straight_runs is everything else (baselines and probes); the three counts sum to the job count.",
			"warmup_cycles_straight is what a non-forked sweep simulates for the grouped jobs' shared prefixes: group members x snapshot cycle, summed over groups that captured a snapshot.",
			"warmup_cycles_forked is what the forked sweep simulated for the same work: each group's snapshot cycle once. warmup_reduction is their ratio.",
			"A group whose probe never reached a snapshot-worthy boundary (no stable phase at this scale) made no policy decision, so its other members merge with the probe; it is excluded from groups and both warmup totals.",
			"Forked results are bit-identical to straight runs; TestForkPolicyMatrixBitIdentical asserts the full matrix JSON byte-for-byte.",
		},
	}
}
