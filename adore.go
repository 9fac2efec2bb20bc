// Package adore is the public API of the ADORE reproduction: a simulated
// Itanium-2-class machine, an ORC-like static compiler, seventeen SPEC
// CPU2000-like workloads, and the ADORE dynamic optimizer itself — runtime
// data-cache prefetching driven by hardware performance-monitoring samples,
// after Lu et al., "The Performance of Runtime Data Cache Prefetching in a
// Dynamic Optimization System" (MICRO-36, 2003).
//
// Quick start:
//
//	bench, _ := adore.Benchmark("mcf", 1.0)
//	build, _ := adore.Compile(bench.Kernel, adore.CompileOptions())
//
//	base, _ := adore.Run(build, adore.RunOptions())          // plain O2
//	opt, _ := adore.Run(build, adore.WithADORE(adore.RunOptions()))
//	fmt.Printf("speedup: %.1f%%\n", 100*adore.Speedup(base.CPU.Cycles, opt.CPU.Cycles))
//
// The experiment drivers (Fig7, Table1, ...) regenerate every table and
// figure of the paper's evaluation; `cmd/adore-bench` wraps them.
//
// The exported names are aliases of the internal implementation packages,
// so everything reachable from here is usable without importing internals:
// isa/asm/program (the simulated target), memsys/cpu/pmu (the machine),
// compiler (the static side), core (the dynamic optimizer), verify (the
// machine-code verifier), workloads and harness (the evaluation).
package adore

import (
	"context"
	"io"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/memsys"
	"repro/internal/obs"
	"repro/internal/pmu"
	"repro/internal/verify"
	"repro/internal/workloads"
)

// Workload definition and compilation.
type (
	// Kernel is the loop-oriented workload IR accepted by the compiler.
	Kernel = compiler.Kernel
	// Array declares one data region of a kernel.
	Array = compiler.Array
	// Phase is a repeat-counted sequence of loops.
	Phase = compiler.Phase
	// Loop is a one- or two-deep loop nest.
	Loop = compiler.Loop
	// Stmt is one loop-body statement.
	Stmt = compiler.Stmt
	// Ref is a memory reference (affine, indirect, or pointer-chasing).
	Ref = compiler.Ref
	// Init sets a loop-carried temp before the inner loop starts.
	Init = compiler.Init
	// BuildOptions are the static compiler knobs (O2/O3, SWP, reserved
	// registers, profile-guided prefetch filtering).
	BuildOptions = compiler.Options
	// Build is compiled output: the program image plus Table 1 metrics.
	Build = compiler.BuildResult
)

// The dynamic optimizer.
type (
	// Config holds every ADORE parameter: sampling, phase detection,
	// trace selection, prefetch generation, patching.
	Config = core.Config
	// Controller is the dynopt thread.
	Controller = core.Controller
	// OptStats aggregates what the optimizer did (Table 2 counters).
	OptStats = core.Stats
)

// The observability layer (DESIGN.md §10): a cycle-stamped event recorder
// threaded through the controller, CPI-stack accounting in the CPU, and
// exporters for Perfetto (Chrome trace format), JSONL, and a text timeline.
type (
	// ObsEvent is one recorded controller/counter event.
	ObsEvent = obs.Event
	// ObsKind identifies what an ObsEvent records.
	ObsKind = obs.Kind
	// ObsCapture is one run's complete event stream.
	ObsCapture = obs.Capture
	// Recorder is the fixed-capacity event ring buffer.
	Recorder = obs.Recorder
	// CPIStack partitions elapsed cycles into busy / load-stall /
	// flush / fetch (cpu.Config.Accounting).
	CPIStack = cpu.CPIStack
	// PrefetchStats aggregates prefetch-usefulness counters.
	PrefetchStats = memsys.PrefetchStats
)

// WithObserve enables the observability layer on a run configuration:
// RunResult.Obs carries the event stream (on ADORE runs) and
// RunResult.CPIStack/LoopCPI the cycle accounting.
func WithObserve(rc RunConfig) RunConfig {
	rc.Observe = true
	return rc
}

// WriteChromeTrace writes a capture in Chrome trace-event format, loadable
// in Perfetto and chrome://tracing.
func WriteChromeTrace(w io.Writer, c *ObsCapture) error { return obs.WriteChromeTrace(w, c) }

// WriteEventsJSONL writes a capture as JSON Lines (one event per line).
func WriteEventsJSONL(w io.Writer, c *ObsCapture) error { return obs.WriteJSONL(w, c) }

// ValidateChromeTrace checks that data is a well-formed Chrome trace with
// per-track monotonic timestamps, returning the timestamped event count.
func ValidateChromeTrace(data []byte) (int, error) { return obs.ValidateChromeTrace(data) }

// Timeline renders a capture as a plain-text per-window history.
func Timeline(c *ObsCapture) string { return obs.Timeline(c) }

// The static machine-code verifier (DESIGN.md §9). It checks generated
// images after every compile, guards every runtime patch installation
// (Config.Verify, on by default), and backs cmd/adore-lint.
type (
	// Finding is one verifier diagnostic, addressed by bundle and slot.
	Finding = verify.Finding
	// VerifyRule names the check that produced a finding.
	VerifyRule = verify.Rule
	// VerifyOptions configures a verification pass.
	VerifyOptions = verify.Options
)

// VerifyImage statically checks a compiled image and returns its findings
// (nil when clean). Compile already runs this; it is exported for checking
// images loaded or modified outside the build path.
func VerifyImage(b *Build, opt VerifyOptions) []Finding {
	return verify.CheckImage(b.Image, opt)
}

// The machine and harness.
type (
	// MachineConfig is the CPU issue model.
	MachineConfig = cpu.Config
	// MemoryConfig is the cache hierarchy geometry.
	MemoryConfig = memsys.HierarchyConfig
	// SamplingConfig programs the PMU sampler.
	SamplingConfig = pmu.Config
	// RunConfig selects what to wire around a workload for one run.
	RunConfig = harness.RunConfig
	// Result is the outcome of one run.
	Result = harness.RunResult
	// WorkloadInfo describes one of the 17 SPEC2000-like benchmarks.
	WorkloadInfo = workloads.Benchmark
)

// Experiment drivers (one per table/figure in the paper's evaluation).
type (
	ExpConfig    = harness.ExpConfig
	Fig7Result   = harness.Fig7Result
	Table1Result = harness.Table1Result
	Table2Result = harness.Table2Result
	SeriesResult = harness.SeriesResult
	Fig10Result  = harness.Fig10Result
	Fig11Result  = harness.Fig11Result
	// PolicyMatrixResult is the policy-layer evaluation: every benchmark ×
	// every registered prefetch policy × the runtime selector.
	PolicyMatrixResult = harness.PolicyMatrixResult
)

// The concurrent experiment engine. Every run is hermetic, so sweeps
// parallelize freely: set ExpConfig.Engine (or pass -j to cmd/adore-bench)
// to run the paper's sweeps on a worker pool with a shared build cache.
type (
	// Engine schedules experiment jobs on a bounded worker pool and
	// deduplicates compiles through a single-flight build cache.
	Engine = harness.Engine
	// EngineConfig sizes the engine: Parallelism (0 = GOMAXPROCS,
	// 1 = serial) and an optional progress callback.
	EngineConfig = harness.EngineConfig
	// EngineProgress is one live job start/finish event.
	EngineProgress = harness.Progress
	// EngineJob pairs a compile spec with one run configuration.
	EngineJob = harness.Job
	// EngineCompileSpec names one cached compilation unit.
	EngineCompileSpec = harness.CompileSpec
	// EngineBuildCache is the single-flight compile cache.
	EngineBuildCache = harness.BuildCache
)

// O2 and O3 are the compilation levels of the evaluation.
const (
	O2 = compiler.O2
	O3 = compiler.O3
)

// Benchmarks returns the 17 paper benchmarks at the given workload scale
// (1.0 = the standard run lengths).
func Benchmarks(scale float64) []WorkloadInfo { return workloads.All(scale) }

// Benchmark returns one benchmark by its SPEC name ("mcf", "art", ...).
func Benchmark(name string, scale float64) (WorkloadInfo, error) {
	return workloads.ByName(name, scale)
}

// CompileOptions returns the paper's restricted configuration: O2, no
// software pipelining, registers r27-r30 and p6 reserved for the runtime
// optimizer.
func CompileOptions() BuildOptions { return compiler.DefaultOptions() }

// Compile lowers a kernel to a simulated IA-64 program image.
func Compile(k *Kernel, opts BuildOptions) (*Build, error) { return compiler.Build(k, opts) }

// DefaultConfig returns ADORE parameters scaled for simulated runs.
func DefaultConfig() Config { return core.DefaultConfig() }

// RunOptions returns the standard machine configuration without ADORE.
func RunOptions() RunConfig { return harness.DefaultRunConfig() }

// WithADORE enables the dynamic optimizer on a run configuration.
func WithADORE(rc RunConfig) RunConfig {
	rc.ADORE = true
	if rc.Core.W == 0 {
		rc.Core = core.DefaultConfig()
	}
	return rc
}

// WithPolicy selects a named prefetch policy for the run's optimizer and
// implies WithADORE. The built-ins are "paper" (the default §3 pipeline),
// "nextline", "adaptive", and "throttle"; Policies lists what is
// registered. An unknown name surfaces as an error from Run.
func WithPolicy(rc RunConfig, policy string) RunConfig {
	rc = WithADORE(rc)
	rc.Core.Policy = policy
	rc.Core.Selector = false
	return rc
}

// WithSelector enables the runtime policy selector, which re-picks the
// prefetch policy from live machine counters at every stable phase.
// Implies WithADORE and overrides any fixed WithPolicy choice.
func WithSelector(rc RunConfig) RunConfig {
	rc = WithADORE(rc)
	rc.Core.Policy = ""
	rc.Core.Selector = true
	return rc
}

// Policies returns the registered prefetch-policy names, sorted.
func Policies() []string { return core.PrefetchPolicyNames() }

// Run executes a compiled workload.
func Run(b *Build, rc RunConfig) (*Result, error) { return harness.Run(b, rc) }

// RunContext is Run with cancellation threaded through the simulator: the
// CPU polls ctx between bundles, so long simulations stop promptly.
func RunContext(ctx context.Context, b *Build, rc RunConfig) (*Result, error) {
	return harness.RunContext(ctx, b, rc)
}

// NewEngine creates a concurrent experiment engine. Share one engine
// across sweeps to share its build cache.
func NewEngine(cfg EngineConfig) *Engine { return harness.NewEngine(cfg) }

// Speedup returns base/test - 1 (positive: test is faster).
func Speedup(baseCycles, testCycles uint64) float64 {
	return harness.Speedup(baseCycles, testCycles)
}

// Experiments returns a default full-scale experiment configuration.
func Experiments() ExpConfig { return harness.DefaultExpConfig() }

// Fig7 regenerates Fig. 7(a) (level O2) or 7(b) (level O3).
func Fig7(cfg ExpConfig, level compiler.OptLevel) (*Fig7Result, error) {
	return harness.RunFig7Context(context.Background(), cfg, level)
}

// Table1 regenerates the profile-guided static prefetching comparison.
func Table1(cfg ExpConfig) (*Table1Result, error) {
	return harness.RunTable1Context(context.Background(), cfg)
}

// Table2 regenerates the prefetch pattern analysis.
func Table2(cfg ExpConfig) (*Table2Result, error) {
	return harness.RunTable2Context(context.Background(), cfg)
}

// Series regenerates the Fig. 8 (art) / Fig. 9 (mcf) time series for any
// benchmark.
func Series(cfg ExpConfig, name string) (*SeriesResult, error) {
	return harness.RunSeriesContext(context.Background(), cfg, name)
}

// Fig10 regenerates the register-reservation/SWP impact comparison.
func Fig10(cfg ExpConfig) (*Fig10Result, error) {
	return harness.RunFig10Context(context.Background(), cfg)
}

// Fig11 regenerates the monitoring-overhead measurement.
func Fig11(cfg ExpConfig) (*Fig11Result, error) {
	return harness.RunFig11Context(context.Background(), cfg)
}

// PolicyMatrix runs every benchmark under every registered prefetch policy
// and the runtime selector, against the no-prefetching baseline.
func PolicyMatrix(cfg ExpConfig) (*PolicyMatrixResult, error) {
	return harness.RunPolicyMatrixContext(context.Background(), cfg)
}
