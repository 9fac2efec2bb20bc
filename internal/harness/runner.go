// Package harness assembles full experiment machines — compiled workload,
// memory system, PMU, CPU, and optionally the ADORE controller — runs them,
// and renders the paper's tables and figures from the results.
package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pmu"
	"repro/internal/program"
)

// RunConfig selects what to wire around the workload.
type RunConfig struct {
	ADORE        bool        // attach the dynamic optimizer
	Core         core.Config // ADORE parameters (ignored unless ADORE)
	CPU          cpu.Config
	Hierarchy    memsys.HierarchyConfig
	MaxInsts     uint64 // safety stop; 0 = default
	RecordSeries bool   // collect per-window CPI/DPI series (Figs. 8-9)

	// SampleOnly attaches the PMU and series recorder without ADORE —
	// the "No Runtime Prefetching" side of Figs. 8-9 still shows PMU
	// metrics over time.
	SampleOnly bool

	// CaptureDear additionally collects every sampled DEAR event
	// (requires SampleOnly) — the training profile for Table 1.
	CaptureDear bool

	// OnOptimize, when set with ADORE, observes every trace
	// optimization attempt (tooling/debugging hook). Excluded from the
	// run fingerprint (a hook is not configuration); jobs carrying one
	// bypass the engine's result cache.
	OnOptimize func(*core.Trace, []core.DelinquentLoad, core.OptimizeResult) `json:"-"`

	// Observe turns on the observability layer for this run: the CPU's
	// CPI-stack accounting (cpu.Config.Accounting), the controller's event
	// recorder (core.Config.Observe), and loop metadata on both, filling
	// RunResult.Obs / CPIStack / LoopCPI. Off by default; when off the run
	// is bit-identical to one built without the layer.
	Observe bool

	// Profile, when nonzero, enables the CPU's cycle-sampling profiler at
	// this interval (simulated cycles; prefer a prime — see
	// cpu.EnableProfiler) and fills RunResult.Profile. The sampler's hook
	// charges nothing, so cpu.Stats and all simulated results stay
	// bit-identical to an unprofiled run; only the result shape changes,
	// which is why the field participates in the fingerprint (a profiled
	// and an unprofiled job must not alias in the result cache).
	Profile uint64

	// Metrics, when set, wires this run's controller to a live metric
	// registry (core.Telemetry). Excluded from the fingerprint like
	// OnOptimize: instruments observe a run without shaping its result,
	// and a metrics-carrying run may share a result-cache entry with a
	// bare one.
	Metrics *metrics.Registry `json:"-"`
}

// Fingerprint returns a stable hash of every configuration field that
// shapes a run's observable result — the ADORE parameters (including the
// prefetch policy and selector), CPU and hierarchy geometry, instruction
// budget, and which outputs are collected. Two RunConfigs with equal
// fingerprints produce identical results for the same build, which is the
// contract the engine's result cache relies on; in particular, runs
// differing only in Core.Policy or Core.Selector fingerprint differently,
// so policies can never alias in a cache. The OnOptimize hook is excluded
// (tagged json:"-"): hooks observe a run without shaping its result, and
// hooked jobs skip result caching anyway.
func (cfg RunConfig) Fingerprint() string {
	b, err := json.Marshal(cfg)
	if err != nil {
		// RunConfig is plain data by construction; a marshal failure is a
		// programming error (e.g. a new un-taggable field), not a runtime
		// condition.
		panic(fmt.Sprintf("harness: RunConfig not fingerprintable: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// DearEvent is one captured miss event of a training profile.
type DearEvent struct {
	PC      uint64
	Addr    uint64
	Latency uint32
}

// DefaultRunConfig returns the standard machine configuration.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		Core:      core.DefaultConfig(),
		CPU:       cpu.DefaultConfig(),
		Hierarchy: memsys.DefaultConfig(),
		MaxInsts:  2_000_000_000,
	}
}

// SeriesPoint is one profile window of the Fig. 8/9 time series.
type SeriesPoint struct {
	Cycle uint64
	CPI   float64
	// DearPerK is DEAR events per 1000 instructions — the paper's
	// "DEAR_CACHE_LAT8 / 1000 Instructions" metric.
	DearPerK float64
	DPI      float64
}

// RunResult is everything an experiment needs from one run.
type RunResult struct {
	Name       string
	CPU        cpu.Stats
	Core       *core.Stats // nil when ADORE was off
	Series     []SeriesPoint
	Mem        memsys.HierarchyStats // the hierarchy's counters at the end of the run
	DearEvents []DearEvent           // non-nil only with CaptureDear

	// Observability outputs, non-nil only with RunConfig.Observe (and
	// omitted from JSON otherwise, keeping unobserved output unchanged).
	Obs      *obs.Capture         `json:",omitempty"` // controller event stream (ADORE runs)
	CPIStack *cpu.CPIStack        `json:",omitempty"` // whole-run cycle accounting
	LoopCPI  map[int]cpu.CPIStack `json:",omitempty"` // per-loop cycle accounting

	// Profile is the simulated-execution profile, non-nil only with
	// RunConfig.Profile (and omitted from JSON otherwise).
	Profile *obs.Profile `json:",omitempty"`

	// FinalMemory is the simulated data memory after the run — the
	// observable program results, used by semantics-preservation tests.
	FinalMemory *memsys.Memory `json:"-"`

	// Differential-harness outputs (never serialized): the final
	// architectural register state, the run's private code space (patched
	// state included), and the controller when ADORE was attached.
	//
	// The machine fields — FinalMemory, Arch, Code, Controller — are set
	// only on runs made outside the engine's result cache (direct runs,
	// differential, hook-carrying and fork runs). The cache keeps a run
	// record, so they are nil in every result it hands out.
	Arch       *isa.ArchState     `json:"-"`
	Code       *program.CodeSpace `json:"-"`
	Controller *core.Controller   `json:"-"`
}

// ProfiledRun is a training run carrying its miss profile.
type ProfiledRun = RunResult

// RunProfiled runs the workload with sampling only, capturing the DEAR
// profile used by the Table 1 profile-guided compilation.
func RunProfiled(build *compiler.BuildResult, cfg RunConfig) (*ProfiledRun, error) {
	return RunProfiledContext(context.Background(), build, cfg)
}

// RunProfiledContext is RunProfiled with cancellation.
func RunProfiledContext(ctx context.Context, build *compiler.BuildResult, cfg RunConfig) (*ProfiledRun, error) {
	cfg.SampleOnly = true
	cfg.ADORE = false
	cfg.CaptureDear = true
	return RunContext(ctx, build, cfg)
}

// Run executes a compiled workload under cfg.
func Run(build *compiler.BuildResult, cfg RunConfig) (*RunResult, error) {
	return RunContext(context.Background(), build, cfg)
}

// RunContext is Run with cancellation threaded through the simulator: the
// CPU polls ctx between bundles, so even multi-billion-cycle simulations
// stop promptly when ctx fires. The run never mutates build — each run gets
// a private code-segment copy, memory, and hierarchy — so one BuildResult
// may back any number of concurrent runs.
func RunContext(ctx context.Context, build *compiler.BuildResult, cfg RunConfig) (*RunResult, error) {
	return RunImageContext(ctx, build.Image, cfg)
}

// RunImage executes a bare program image under cfg — the entry point for
// programs that never went through the compiler, such as fuzz-generated
// images (internal/progfuzz) and hand-assembled tests.
func RunImage(img *program.Image, cfg RunConfig) (*RunResult, error) {
	return RunImageContext(context.Background(), img, cfg)
}

// RunImageContext is RunImage with cancellation.
func RunImageContext(ctx context.Context, img *program.Image, cfg RunConfig) (*RunResult, error) {
	return runImage(ctx, img, cfg, nil, nil)
}

// runImage assembles and runs one machine. The two optional fork
// parameters (fork.go) select the checkpoint/fork engine's modes: a
// non-nil probe captures a ForkSnapshot while the run executes normally;
// a non-nil resume rewinds the freshly assembled machine to the snapshot
// before the first simulated cycle, so the run replays only the
// continuation. At most one may be set; plain runs pass nil for both.
func runImage(ctx context.Context, img *program.Image, cfg RunConfig, probe *forkProbe, resume *ForkSnapshot) (*RunResult, error) {
	code := program.NewCodeSpace()
	// Each run gets a private copy of the code: ADORE patches bundles in
	// place, and runs must not contaminate each other.
	seg := &program.Segment{
		Name:    img.Code.Name,
		Base:    img.Code.Base,
		Bundles: append([]isa.Bundle{}, img.Code.Bundles...),
	}
	if err := code.AddSegment(seg); err != nil {
		return nil, err
	}
	var mem *memsys.Memory
	if resume != nil {
		// A continuation forks the snapshot's frozen memory image instead
		// of re-initializing: pages are shared copy-on-write, so N
		// continuations fan out from one warmup without copying the heap.
		mem = resume.mem.Fork()
	} else {
		mem = img.NewMemory()
	}
	hier := memsys.NewHierarchy(cfg.Hierarchy)

	var p *pmu.PMU
	var ctrl *core.Controller
	res := &RunResult{Name: img.Name}

	if cfg.Observe {
		cfg.Core.Observe = true
		cfg.CPU.Accounting = true
	}
	if cfg.Metrics != nil {
		cfg.Core.Telemetry = core.NewTelemetry(cfg.Metrics)
	}
	needPMU := cfg.ADORE || cfg.SampleOnly
	if needPMU {
		p = pmu.New(cfg.Core.Sampling)
	}
	m := cpu.New(cfg.CPU, code, mem, hier, p)
	m.SetPC(img.Entry)
	m.SetImage(img) // no-op without Accounting
	if cfg.Profile > 0 {
		m.EnableProfiler(cfg.Profile)
	}

	record := func(w core.WindowMetrics) {
		if !cfg.RecordSeries {
			return
		}
		dRet := float64(w.Retired)
		var dearPerK float64
		if dRet > 0 {
			dearPerK = float64(w.DearEvents) / dRet * 1000
		}
		res.Series = append(res.Series, SeriesPoint{
			Cycle: w.EndCycle, CPI: w.CPI, DearPerK: dearPerK, DPI: w.DPI,
		})
	}

	switch {
	case cfg.ADORE:
		var err error
		ctrl, err = core.NewController(cfg.Core, code, p)
		if err != nil {
			return nil, err
		}
		ctrl.OnWindow = record
		ctrl.OnOptimize = cfg.OnOptimize
		ctrl.SetImage(img)
		ctrl.Attach(m)
	case cfg.SampleOnly:
		ueb := core.NewUEB(cfg.Core.W)
		p.SetHandler(func(s []pmu.Sample) {
			if cfg.CaptureDear {
				for i := range s {
					if d := s[i].DEAR; d.Valid {
						res.DearEvents = append(res.DearEvents, DearEvent{PC: d.PC, Addr: d.Addr, Latency: d.Latency})
					}
				}
			}
			record(ueb.AddWindow(s))
		})
		p.Start(0)
	}

	if probe != nil {
		if err := probe.arm(m, mem, code, hier, p, ctrl, res); err != nil {
			return nil, fmt.Errorf("harness: %s: %w", img.Name, err)
		}
	}
	if resume != nil {
		if err := resume.restore(m, code, hier, p, ctrl, res); err != nil {
			return nil, fmt.Errorf("harness: %s: %w", img.Name, err)
		}
	}

	maxInsts := cfg.MaxInsts
	if maxInsts == 0 {
		maxInsts = 2_000_000_000
	}
	st, err := m.RunContext(ctx, maxInsts)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", img.Name, err)
	}
	if !m.Halted() {
		return nil, fmt.Errorf("harness: %s did not halt within %d instructions", img.Name, maxInsts)
	}
	if p != nil {
		p.Stop()
	}
	res.CPU = st
	res.Mem = hier.Stats()
	res.FinalMemory = mem
	arch := m.ArchState()
	res.Arch = &arch
	res.Code = code
	res.Controller = ctrl
	if ctrl != nil {
		cs := ctrl.Stats
		res.Core = &cs
		res.Obs = ctrl.Capture() // nil unless Core.Observe
	}
	if stack, ok := m.Accounting(); ok {
		s := stack
		res.CPIStack = &s
		res.LoopCPI = m.LoopAccounting()
	}
	if cfg.Profile > 0 {
		res.Profile = obs.BuildProfile(img.Name, cfg.Profile, st.Cycles, m.ProfileSamples(), img)
	}
	return res, nil
}

// Speedup returns base/test - 1 as a fraction (positive = test faster).
// Zero testCycles means the test run never executed; that is NaN, not
// "no speedup" — callers rendering figures will see it instead of a
// silently-masked broken run.
func Speedup(baseCycles, testCycles uint64) float64 {
	if testCycles == 0 {
		return math.NaN()
	}
	return float64(baseCycles)/float64(testCycles) - 1
}
