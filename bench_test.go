package adore

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/pmu"
)

// benchScale keeps each harness invocation around a second of host time;
// EXPERIMENTS.md numbers come from scale 1.0 via cmd/adore-bench.
const benchScale = 0.15

func benchExpConfig() harness.ExpConfig {
	cfg := harness.DefaultExpConfig()
	cfg.Scale = benchScale
	return cfg
}

func row(f *harness.Fig7Result, name string) *harness.SpeedupRow {
	for i := range f.Rows {
		if f.Rows[i].Name == name {
			return &f.Rows[i]
		}
	}
	return nil
}

// BenchmarkFig7a regenerates Fig. 7(a): runtime prefetching over O2
// binaries across the 17 benchmarks.
func BenchmarkFig7a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig7Context(context.Background(), benchExpConfig(), compiler.O2)
		if err != nil {
			b.Fatal(err)
		}
		if r := row(res, "mcf"); r != nil {
			b.ReportMetric(r.Speedup*100, "mcf_speedup_%")
		}
		if r := row(res, "art"); r != nil {
			b.ReportMetric(r.Speedup*100, "art_speedup_%")
		}
	}
}

// BenchmarkFig7b regenerates Fig. 7(b): runtime prefetching over O3.
func BenchmarkFig7b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig7Context(context.Background(), benchExpConfig(), compiler.O3)
		if err != nil {
			b.Fatal(err)
		}
		if r := row(res, "mcf"); r != nil {
			b.ReportMetric(r.Speedup*100, "mcf_speedup_%")
		}
	}
}

// benchFig7AtParallelism runs the Fig. 7(a) sweep on an engine of the given
// width. A fresh engine (and thus a cold build cache) per iteration keeps
// iterations comparable. It also reports retained-MB: the live heap after
// a forced GC with the last iteration's engine — its build and result
// caches — still alive.
func benchFig7AtParallelism(b *testing.B, workers int) {
	b.Helper()
	if testing.Short() {
		b.Skip("long: full 17-benchmark sweep")
	}
	cfg := benchExpConfig()
	for i := 0; i < b.N; i++ {
		cfg.Engine = harness.NewEngine(harness.EngineConfig{Parallelism: workers})
		res, err := harness.RunFig7Context(context.Background(), cfg, compiler.O2)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty sweep")
		}
	}
	b.StopTimer()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(cfg.Engine)
	b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "retained-MB")
}

// BenchmarkFig7Serial pins the engine to one worker — the baseline for
// BenchmarkFig7Parallel.
func BenchmarkFig7Serial(b *testing.B) { benchFig7AtParallelism(b, 1) }

// BenchmarkFig7Parallel runs the same sweep with one worker per core; the
// ratio against BenchmarkFig7Serial tracks the engine's wall-clock win in
// the perf trajectory.
func BenchmarkFig7Parallel(b *testing.B) { benchFig7AtParallelism(b, 0) }

// BenchmarkPaperSweep runs Fig. 7(a), Fig. 7(b), Table 1 and Fig. 11, in
// that order, on one fresh single-worker engine per iteration at the golden
// corpus configuration — the sweeps adore-bench runs on one shared engine.
// Every run of the four is an engine job, 153 in all. cache-hits/op counts
// the runs one iteration served from the result cache instead of
// simulating (Table 1's 17 O3 base runs and all 34 of Fig. 11's), so a
// change in how much the sweeps share shows up next to its time.
func BenchmarkPaperSweep(b *testing.B) {
	if testing.Short() {
		b.Skip("long: four 17-benchmark sweeps")
	}
	cfg := harness.GoldenExpConfig()
	var hits uint64
	for i := 0; i < b.N; i++ {
		cfg.Engine = harness.NewEngine(harness.EngineConfig{Parallelism: 1})
		for _, level := range []compiler.OptLevel{compiler.O2, compiler.O3} {
			if _, err := harness.RunFig7Context(context.Background(), cfg, level); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := harness.RunTable1Context(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
		if _, err := harness.RunFig11Context(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
		h, _ := cfg.Engine.Results().Stats()
		hits += h
	}
	b.ReportMetric(float64(hits)/float64(b.N), "cache-hits/op")
}

// BenchmarkTable1 regenerates the profile-guided static prefetching table.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunTable1Context(context.Background(), benchExpConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FilteredFraction()*100, "loops_filtered_%")
	}
}

// BenchmarkTable2 regenerates the prefetch pattern analysis.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunTable2Context(context.Background(), benchExpConfig())
		if err != nil {
			b.Fatal(err)
		}
		var dir, ind, ptr int
		for _, r := range res.Rows {
			dir += r.Direct
			ind += r.Indirect
			ptr += r.Pointer
		}
		b.ReportMetric(float64(dir), "direct")
		b.ReportMetric(float64(ind), "indirect")
		b.ReportMetric(float64(ptr), "pointer")
	}
}

// BenchmarkFig8 regenerates the 179.art CPI/DEAR time series.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunSeriesContext(context.Background(), benchExpConfig(), "art")
		if err != nil {
			b.Fatal(err)
		}
		// The paper's claim: CPI roughly halves in the steady state.
		before := harness.MeanCPI(res.Without, 0.3, 0.6)
		after := harness.MeanCPI(res.With, 0.3, 0.6)
		if after > 0 {
			b.ReportMetric(before/after, "cpi_ratio")
		}
	}
}

// BenchmarkFig9 regenerates the 181.mcf series.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunSeriesContext(context.Background(), benchExpConfig(), "mcf")
		if err != nil {
			b.Fatal(err)
		}
		before := harness.MeanCPI(res.Without, 0.2, 0.5)
		after := harness.MeanCPI(res.With, 0.2, 0.5)
		if after > 0 {
			b.ReportMetric(before/after, "cpi_ratio")
		}
	}
}

// BenchmarkFig10 regenerates the register/SWP impact comparison.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig10Context(context.Background(), benchExpConfig())
		if err != nil {
			b.Fatal(err)
		}
		over3 := 0
		for _, r := range res.Rows {
			if r.Impact > 0.03 {
				over3++
			}
		}
		b.ReportMetric(float64(over3), "programs_over_3%")
	}
}

// BenchmarkFig11 regenerates the monitoring overhead measurement.
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig11Context(context.Background(), benchExpConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MaxOverhead()*100, "max_overhead_%")
	}
}

// ---- ablation benches (DESIGN.md §5) ----

// ablationRun measures the ADORE speedup on the mcf workload under a
// modified optimizer configuration.
func ablationRun(b *testing.B, name string, mutate func(*core.Config)) {
	b.Helper()
	bench, err := Benchmark(name, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	build, err := Compile(bench.Kernel, CompileOptions())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rc := RunOptions()
		base, err := Run(build, rc)
		if err != nil {
			b.Fatal(err)
		}
		rc = WithADORE(RunOptions())
		mutate(&rc.Core)
		opt, err := Run(build, rc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(Speedup(base.CPU.Cycles, opt.CPU.Cycles)*100, "speedup_%")
	}
}

// BenchmarkAblationBaseline is the reference point for the ablations.
func BenchmarkAblationBaseline(b *testing.B) {
	ablationRun(b, "art", func(*core.Config) {})
}

// BenchmarkAblationDistance caps the prefetch distance at one iteration,
// ablating the latency/body-cycles distance formula.
func BenchmarkAblationDistance(b *testing.B) {
	ablationRun(b, "art", func(c *core.Config) { c.MaxPrefetchIters = 1 })
}

// BenchmarkAblationTopK1 prefetches only the single hottest load per trace
// instead of the paper's top three.
func BenchmarkAblationTopK1(b *testing.B) {
	ablationRun(b, "art", func(c *core.Config) { c.MaxDelinquentLoads = 1 })
}

// BenchmarkAblationTopK8 raises the cap to eight (register budget still
// limits what fits).
func BenchmarkAblationTopK8(b *testing.B) {
	ablationRun(b, "art", func(c *core.Config) { c.MaxDelinquentLoads = 8 })
}

// BenchmarkAblationNoAlign disables L1D-line alignment of small integer
// strides.
func BenchmarkAblationNoAlign(b *testing.B) {
	ablationRun(b, "bzip2", func(c *core.Config) { c.NoLineAlign = true })
}

// BenchmarkAblationNaiveSchedule always inserts new bundles instead of
// filling empty slots.
func BenchmarkAblationNaiveSchedule(b *testing.B) {
	ablationRun(b, "art", func(c *core.Config) { c.NaiveSchedule = true })
}

// BenchmarkAblationPointerDistance sweeps the pointer-chasing
// iteration-ahead amplification on mcf.
func BenchmarkAblationPointerDistance(b *testing.B) {
	ablationRun(b, "mcf", func(c *core.Config) { c.IterAheadLog2 = 1 })
}

// BenchmarkAblationNoWindowDoubling disables the phase detector's window
// doubling.
func BenchmarkAblationNoWindowDoubling(b *testing.B) {
	ablationRun(b, "gcc", func(c *core.Config) { c.WindowDoubleAfter = 0 })
}

// BenchmarkSimulatorThroughput measures raw simulation speed (simulated
// instructions per host second) — the cost of the substrate itself.
func BenchmarkSimulatorThroughput(b *testing.B) {
	bench, err := Benchmark("swim", 0.1)
	if err != nil {
		b.Fatal(err)
	}
	build, err := Compile(bench.Kernel, CompileOptions())
	if err != nil {
		b.Fatal(err)
	}
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Run(build, RunOptions())
		if err != nil {
			b.Fatal(err)
		}
		insts += r.CPU.Retired
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(insts)/sec/1e6, "Minst/s")
	}
}

// BenchmarkPMUSamplingCost measures the sampling machinery in isolation.
func BenchmarkPMUSamplingCost(b *testing.B) {
	p := pmu.New(pmu.DefaultConfig())
	p.SetHandler(func([]pmu.Sample) {})
	p.Start(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.OnBranch(uint64(i), uint64(i+64), i%2 == 0)
		p.OnLoadMiss(uint64(i), uint64(i*64), 20)
		p.TakeSample(uint64(i), uint64(i*2000))
	}
}

// ---- §6 future-work extension benches ----

// BenchmarkExtensionSWPLoops measures runtime prefetching on a
// software-pipelined binary with the SWP-loop extension enabled.
func BenchmarkExtensionSWPLoops(b *testing.B) {
	bench, err := Benchmark("swim", 0.25)
	if err != nil {
		b.Fatal(err)
	}
	opts := CompileOptions()
	opts.SWP = true
	build, err := Compile(bench.Kernel, opts)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		base, err := Run(build, RunOptions())
		if err != nil {
			b.Fatal(err)
		}
		rc := WithADORE(RunOptions())
		rc.Core.OptimizeSWPLoops = true
		opt, err := Run(build, rc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(Speedup(base.CPU.Cycles, opt.CPU.Cycles)*100, "speedup_%")
	}
}

// BenchmarkExtensionStrideProfiling measures the instrumentation extension
// on a vpr-like kernel whose stride hides behind an fp-int conversion.
func BenchmarkExtensionStrideProfiling(b *testing.B) {
	bench, err := Benchmark("vpr", 1.0)
	if err != nil {
		b.Fatal(err)
	}
	build, err := Compile(bench.Kernel, CompileOptions())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		stock, err := Run(build, WithADORE(RunOptions()))
		if err != nil {
			b.Fatal(err)
		}
		rc := WithADORE(RunOptions())
		rc.Core.StrideProfiling = true
		ext, err := Run(build, rc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(Speedup(stock.CPU.Cycles, ext.CPU.Cycles)*100, "speedup_over_stock_%")
		b.ReportMetric(float64(ext.Core.StrideFound), "strides_found")
	}
}

// BenchmarkExtensionPhaseTable measures the signature-table detector on a
// rapidly phase-changing binary.
func BenchmarkExtensionPhaseTable(b *testing.B) {
	bench, err := Benchmark("gcc", 0.4)
	if err != nil {
		b.Fatal(err)
	}
	build, err := Compile(bench.Kernel, CompileOptions())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		stock, err := Run(build, WithADORE(RunOptions()))
		if err != nil {
			b.Fatal(err)
		}
		rc := WithADORE(RunOptions())
		rc.Core.PhaseTable = true
		ext, err := Run(build, rc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(ext.Core.TableHits), "table_hits")
		b.ReportMetric(Speedup(stock.CPU.Cycles, ext.CPU.Cycles)*100, "speedup_over_stock_%")
	}
}

// ---- hot-path perf trajectory (BENCH_hotpath.json) ----

// mipsScale keeps one simulated run well under a second of host time so
// b.N settles quickly; MIPS itself is scale-invariant.
const mipsScale = 0.25

// benchMIPS measures raw end-to-end simulation speed — simulated
// instructions retired per host second — for one workload at one opt
// level, without ADORE attached. These are the numbers BENCH_hotpath.json
// tracks across PRs.
func benchMIPS(b *testing.B, name string, level compiler.OptLevel) {
	bench, err := Benchmark(name, mipsScale)
	if err != nil {
		b.Fatal(err)
	}
	opts := CompileOptions()
	opts.Level = level
	build, err := Compile(bench.Kernel, opts)
	if err != nil {
		b.Fatal(err)
	}
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Run(build, RunOptions())
		if err != nil {
			b.Fatal(err)
		}
		insts += r.CPU.Retired
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(insts)/sec/1e6, "MIPS")
	}
}

// BenchmarkMIPS is the headline simulator-throughput benchmark: mcf at
// both opt levels (the paper's flagship pointer-chasing workload) plus an
// FP stream (swim) and a cache-thrashing scan (art) for contrast.
func BenchmarkMIPS(b *testing.B) {
	b.Run("mcf/O2", func(b *testing.B) { benchMIPS(b, "mcf", O2) })
	b.Run("mcf/O3", func(b *testing.B) { benchMIPS(b, "mcf", O3) })
	b.Run("art/O2", func(b *testing.B) { benchMIPS(b, "art", O2) })
	b.Run("swim/O2", func(b *testing.B) { benchMIPS(b, "swim", O2) })
}
