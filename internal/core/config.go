// Package core implements ADORE — ADaptive Object code REoptimization —
// the paper's contribution: a trace-based dynamic optimizer driven by
// hardware performance-monitoring samples, whose sole optimization here (as
// in the paper) is runtime data-cache prefetching.
//
// The pipeline matches §2-§3 of the paper:
//
//	PMU samples → User Event Buffer → coarse-grain phase detector →
//	trace selection from BTB path profiles → delinquent-load tracking
//	via DEAR → dependence-slice pattern analysis (direct / indirect /
//	pointer-chasing) → prefetch generation with the reserved registers
//	r27-r30 → prefetch scheduling into free slots → trace patching.
package core

import (
	"repro/internal/metrics"
	"repro/internal/pmu"
)

// Config scales ADORE for simulated runs. The paper's wall-clock values
// (100k-300k cycle sampling, 100 ms poll, multi-second windows) are scaled
// down with the run length; every structural ratio the algorithms rely on
// (UEB = W profile windows, window ≫ sampling interval) is preserved.
type Config struct {
	Sampling pmu.Config

	// W is the number of profile windows the User Event Buffer holds
	// (SIZE_UEB = SIZE_SSB * W; the paper uses W = 16).
	W int

	// PollInterval is the cycle distance between phase-detector polls
	// (the paper's 100 ms hibernation).
	PollInterval uint64

	// StableWindows is how many consecutive low-deviation profile
	// windows constitute a stable phase.
	StableWindows int

	// CPIDev / DPIDev are the maximum relative standard deviations of
	// CPI and D-miss-per-instruction across StableWindows windows.
	CPIDev float64
	DPIDev float64
	// PCDev is the maximum standard deviation of window PC-centers, in
	// bytes of code distance.
	PCDev float64

	// MinDPI ignores phases whose data-cache miss rate is too low to be
	// worth prefetching ("we ignore phases that do not have high cache
	// miss rate").
	MinDPI float64

	// MinDearPerK is the minimum DEAR events per 1000 instructions a
	// stable phase must sustain. The DPI counter includes L1 misses that
	// hit L2 quickly; only the >= DearLatencyMin events are fixable by
	// prefetching, so a phase without them is left alone even when its
	// L1 miss rate is high.
	MinDearPerK float64

	// WindowDoubleAfter doubles the logical profile window when this
	// many windows pass without a stable phase ("the phase detector
	// doubles the size of the profile window").
	WindowDoubleAfter int

	// MaxDelinquentLoads caps prefetching per loop trace (the paper's
	// "top three miss instructions in each loop-type trace").
	MaxDelinquentLoads int

	// MinLatencyShare drops delinquent loads contributing less than
	// this fraction of the trace's total sampled miss latency.
	MinLatencyShare float64

	// MinDearEvents is the minimum number of sampled miss events a trace
	// must show before it is optimized — "a typical compiler would not
	// attempt high overhead prefetching unless there is sufficient
	// evidence"; neither does the runtime optimizer.
	MinDearEvents int

	// BranchBias is the taken-ratio above which trace selection follows
	// a branch (and below 1-BranchBias, falls through); in between the
	// branch is "balanced" and stops the trace.
	BranchBias float64

	// MaxTraceBundles bounds trace growth.
	MaxTraceBundles int

	// MaxTraces bounds how many traces are selected per stable phase.
	MaxTraces int

	// TracePoolBase / TracePoolBundles size the shared-memory trace
	// pool dyn_open allocates.
	TracePoolBase    uint64
	TracePoolBundles int

	// PatchCharge is the cycle cost billed to the main thread per
	// installed patch (the brief stop while bundles are swapped).
	PatchCharge uint64

	// IterAheadLog2 is the pointer-chasing prefetch distance as a
	// shladd shift count: the induction-pointer delta is amplified by
	// 2^IterAheadLog2 iterations.
	IterAheadLog2 int64

	// MaxPrefetchIters caps the computed prefetch distance in
	// iterations for direct/indirect prefetching.
	MaxPrefetchIters int64

	// DisableInsertion runs the full pipeline but installs no patches —
	// the Fig. 11 overhead measurement.
	DisableInsertion bool

	// NoLineAlign disables the L1D-line alignment of small integer
	// prefetch distances (§3.3) — an ablation knob.
	NoLineAlign bool

	// NaiveSchedule makes the prefetch scheduler always insert fresh
	// bundles instead of reusing otherwise wasted empty slots (§3.5) —
	// an ablation knob quantifying the cost of ineffective insertion.
	NaiveSchedule bool

	// Verify runs the static machine-code verifier (internal/verify) on
	// every edited trace before installation; a trace with findings is
	// rejected and the original code left unpatched (fail-safe). On by
	// default: the check is cheap relative to trace optimization.
	Verify bool

	// UnpatchSlowdown is the relative CPI regression (observed on an
	// optimized phase vs. its pre-patch CPI) that triggers unpatching.
	UnpatchSlowdown float64

	// Observe records a cycle-stamped structured event stream of the
	// controller's pipeline (internal/obs): profile windows, phase events,
	// trace selection, patching, and — when the CPU runs with
	// cpu.Config.Accounting — per-window CPI-stack and prefetch-usefulness
	// counters. Off by default; when off no recorder exists and the
	// controller's behaviour and timing are bit-identical to a build
	// without the observability layer.
	Observe bool

	// ObserveCapacity bounds the event ring (obs.DefaultCapacity when 0).
	ObserveCapacity int

	// Metrics, when set, receives the controller's live adore_core_*
	// counters, one per counted event kind (observe.go). Nil disables them
	// for free; it is excluded from the run fingerprint (instruments
	// observe a run without shaping its result).
	Metrics *metrics.Registry `json:"-"`

	// Policy names the prefetch policy driving §3 code injection. The
	// empty string (and "paper") is the paper's slice-analysis pipeline;
	// see RegisterPrefetchPolicy / PrefetchPolicyNames for the rest.
	// NewController rejects unknown names.
	Policy string

	// Selector enables the runtime policy selector (selector.go): the
	// prefetch policy is chosen per stable phase from the machine's live
	// bus and prefetch-usefulness counters, overriding Policy.
	Selector bool

	// ---- §6 future-work extensions (all off by default: the paper's
	// published system) ----

	// OptimizeSWPLoops lets trace selection keep software-pipelined
	// loops and the prefetcher optimize them ("we plan to enhance our
	// algorithm to also handle software pipelined loops"). The simulated
	// SWP scheme renames statically instead of rotating registers, so
	// the dependence slicer works unchanged; the paper's hardware could
	// not assume that.
	OptimizeSWPLoops bool

	// PhaseTable remembers the signatures of previously seen stable
	// phases; a recurring phase is re-recognized after a single matching
	// window instead of StableWindows of them — the improvement §6 asks
	// for on "programs with rapid phase changes".
	PhaseTable bool

	// StrideProfiling enables selective runtime instrumentation ("we are
	// investigating the possibility of adding selective runtime
	// instrumentation to collect information not available from HPM"):
	// when slice analysis fails on a delinquent load, the trace is
	// patched with code that records the load's address every iteration;
	// if the recorded addresses show a dominant constant stride, the
	// instrumentation is replaced by a direct prefetch at that stride.
	StrideProfiling bool

	// InstrBufBase is where instrumentation buffers live in the
	// simulated address space.
	InstrBufBase uint64

	// InstrMinSamples is the minimum number of recorded addresses before
	// the stride histogram is evaluated.
	InstrMinSamples int

	// InstrMinShare is the fraction of deltas that must agree for a
	// stride to count as dominant.
	InstrMinShare float64
}

// PolicyKey names the effective prefetch-policy configuration — the string
// cache keys, JSON metadata and summaries use. "selector" when the runtime
// selector is on, else the policy name ("paper" for the default).
func (c Config) PolicyKey() string {
	if c.Selector {
		return "selector"
	}
	if c.Policy == "" {
		return PolicyPaper
	}
	return c.Policy
}

// DefaultConfig returns parameters scaled for runs of 5-100 M instructions.
func DefaultConfig() Config {
	return Config{
		Sampling:           pmu.DefaultConfig(),
		W:                  16,
		PollInterval:       100_000,
		StableWindows:      4,
		CPIDev:             0.12,
		DPIDev:             0.35,
		PCDev:              384,
		MinDPI:             0.0015,
		MinDearPerK:        0.05,
		WindowDoubleAfter:  24,
		MaxDelinquentLoads: 3,
		MinLatencyShare:    0.05,
		MinDearEvents:      16,
		BranchBias:         0.70,
		MaxTraceBundles:    128,
		MaxTraces:          8,
		TracePoolBase:      0x4000_0000,
		TracePoolBundles:   4096,
		PatchCharge:        2000,
		IterAheadLog2:      2,
		MaxPrefetchIters:   64,
		UnpatchSlowdown:    1.15,
		Verify:             true,
		InstrBufBase:       0x6000_0000,
		InstrMinSamples:    2048,
		InstrMinShare:      0.60,
	}
}
