package core

import (
	"math"

	"repro/internal/cpu"
	"repro/internal/memsys"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pmu"
	"repro/internal/program"
	"repro/internal/verify"
)

// Stats aggregates what the dynamic optimizer did during a run; the
// pattern counters are exactly the rows of the paper's Table 2.
type Stats struct {
	DirectPrefetches   int
	IndirectPrefetches int
	PointerPrefetches  int
	PhasesOptimized    int // stable phases that received prefetching

	PhasesDetected  int
	PhaseChanges    int
	WindowsObserved int
	TracesSelected  int
	TracesPatched   int
	Unpatches       int
	// Stride-profiling extension counters.
	StrideProfiled      int // instrumentation experiments started
	StrideFound         int // experiments that yielded a prefetchable stride
	StrideProfileFailed int // experiments with no dominant stride
	// Phase-table extension counters.
	TableHits   int
	TableMisses int
	// FirstPatchCycle records when the first trace went live (0 = never)
	// — the detection-latency metric the phase-table extension improves.
	FirstPatchCycle  uint64
	SkipLowMiss      int
	SkipInPool       int
	SkipOptimized    int
	SkipStaticLfetch int
	AnalysisFailures int
	// Static-verifier counters (Config.Verify): traces checked before
	// installation and traces rejected for failing a rule.
	TracesVerified int
	VerifyRejects  int
	// Policy-selector counters (Config.Selector): per-phase policy
	// decisions and traces where the chosen policy injected nothing and
	// the selector fell back to next-line. Omitted from JSON when zero so
	// fixed-policy output is unchanged.
	PolicySelections int `json:",omitempty"`
	PolicySwitches   int `json:",omitempty"`
	// SamplesDropped counts PMU samples lost to SSB overflows that fired
	// with no handler attached (pmu.PMU.SamplesDropped). Always zero while
	// a controller is attached — it exists so observability runs can tell
	// "no events" from "events lost" — and omitted from JSON when zero so
	// experiment output is unchanged.
	SamplesDropped uint64 `json:",omitempty"`
}

// count records one decision event in its Stats field — the only place
// the nine event-counted fields change (Controller.emit calls it).
// Counter-sample kinds (CPIStack, PrefetchWindow) count nothing.
func (s *Stats) count(k obs.Kind) {
	switch k {
	case obs.KindWindowObserved:
		s.WindowsObserved++
	case obs.KindPhaseDetected:
		s.PhasesDetected++
	case obs.KindPhaseChange:
		s.PhaseChanges++
	case obs.KindTraceSelected:
		s.TracesSelected++
	case obs.KindPatchInstalled:
		s.TracesPatched++
	case obs.KindVerifyReject:
		s.VerifyRejects++
	case obs.KindUnpatch:
		s.Unpatches++
	case obs.KindPolicySelected:
		s.PolicySelections++
	case obs.KindPolicySwitched:
		s.PolicySwitches++
	}
}

// TotalPrefetches returns the number of prefetch sequences inserted.
func (s Stats) TotalPrefetches() int {
	return s.DirectPrefetches + s.IndirectPrefetches + s.PointerPrefetches
}

// Controller is the dynopt thread: it owns the UEB, the phase detector,
// the trace selector/optimizer and the patcher, and is driven by PMU
// buffer-overflow deliveries plus a periodic poll (the paper's 100 ms
// hibernation loop). Its compute runs on the second (simulated) processor
// and is not charged to the monitored program; only patch installation
// charges PatchCharge cycles.
//
// Prefetch generation is driven through the PrefetchPolicy interface
// (policy.go); the default is the paper's own optimizer, so a
// default-config controller behaves bit-identically to the pre-policy
// pipeline.
type Controller struct {
	cfg  Config
	code *program.CodeSpace
	pmu  *pmu.PMU

	ueb  *UEB
	det  *PhaseDetector
	pool *TracePool
	opt  *Optimizer

	// Policy layer: the prefetch decision, plus the optional runtime
	// selector that re-picks pf per stable phase (Config.Selector).
	pf  PrefetchPolicy
	sel *Selector

	newWindows []WindowMetrics
	patches    []*PatchRecord
	optimized  []float64 // PC-center signatures of handled phases
	blacklist  []float64

	// Stride-profiling extension state.
	mem   *memsys.Memory
	instr []*instrRecord

	// Verifier findings of rejected traces (Config.Verify).
	findings []verify.Finding

	// Observability state (Config.Observe; see observe.go).
	obs observeState
	// counters are the live adore_core_* metrics, indexed by event kind
	// (kindMetrics); nil entries are disabled no-ops.
	counters [len(kindMetrics)]*metrics.Counter

	// shadows are other fork-group members deciding in lockstep with
	// this run (shadow.go).
	shadows []*Shadow

	// OnWindow, when set, receives every profile window's metrics — the
	// hook the harness uses to record the Fig. 8/9 time series.
	OnWindow func(WindowMetrics)

	// OnSamples, when set, receives every overflow's samples before they
	// enter the User Event Buffer — the hook the harness uses to capture
	// a run's DEAR profile. The slice is the PMU's buffer and is reused
	// after the call returns.
	OnSamples func([]pmu.Sample)

	// OnOptimize, when set, observes every trace optimization attempt
	// (tooling and tests; not used by the pipeline itself). cycle is the
	// simulated clock at the decision (PrefetchContext.Cycle).
	OnOptimize func(cycle uint64, t *Trace, loads []DelinquentLoad, res OptimizeResult)

	// OnPolicyPoint, when set, fires immediately before the controller's
	// first policy-dependent act of a stable phase — the moment the
	// prefetch policy (or the runtime selector) is consulted. Everything
	// the controller does before this callback is independent of
	// Config.Policy/Config.Selector, which is the fork engine's contract:
	// a snapshot taken at any hook boundary before the callback fires can
	// seed continuations running any policy (DESIGN.md §16). Observation
	// only; must not perturb the controller.
	OnPolicyPoint func(now uint64)

	Stats Stats
}

// NewController wires a controller to the code space it will patch and the
// PMU it samples from. Call Attach to connect it to a CPU.
func NewController(cfg Config, code *program.CodeSpace, p *pmu.PMU) (*Controller, error) {
	// Resolve the prefetch policy first: a bad Config.Policy is a
	// configuration error and should surface before any allocation.
	pf, err := NewPrefetchPolicy(cfg.Policy, cfg)
	if err != nil {
		return nil, err
	}
	pool, err := NewTracePool(cfg, code)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:  cfg,
		code: code,
		pmu:  p,
		ueb:  NewUEB(cfg.W),
		det:  NewPhaseDetector(cfg),
		pool: pool,
		opt:  NewOptimizer(cfg),
	}
	c.pf = pf
	if cfg.Selector {
		c.sel = NewSelector(cfg)
	}
	if cfg.Observe {
		c.obs.rec = obs.NewRecorder(cfg.ObserveCapacity)
		c.obs.prevLoop = make(map[int]cpu.CPIStack)
	}
	for k, m := range kindMetrics {
		if m.name != "" {
			c.counters[k] = cfg.Metrics.Counter(m.name, m.help+execSide)
		}
	}
	return c, nil
}

// Attach installs the signal handler and the poll hook on the CPU and
// starts sampling — the dyn_open sequence of §2.2.
func (c *Controller) Attach(m *cpu.CPU) {
	c.pmu.SetHandler(c.onOverflow)
	m.AddPollHook(c.cfg.PollInterval, c.poll)
	c.mem = m.Mem // instrumentation buffers live in program memory
	c.obs.m = m   // per-window CPI-stack and prefetch sampling
	c.pmu.Start(m.Now())
}

// onOverflow is the signal handler: it copies the System Sample Buffer
// into the User Event Buffer. Its cycle cost is charged by the PMU itself
// (HandlerCyclesPerSample).
func (c *Controller) onOverflow(samples []pmu.Sample) {
	if c.OnSamples != nil {
		c.OnSamples(samples)
	}
	w := c.ueb.AddWindow(samples)
	c.newWindows = append(c.newWindows, w)
	c.emit(obs.Event{
		Cycle: w.EndCycle, Kind: obs.KindWindowObserved, Loop: -1,
		A: uint64(w.Seq), B: uint64(w.DearEvents), C: w.Retired,
		V: w.CPI, W: w.DPI,
	})
	c.observeWindow()
	if c.OnWindow != nil {
		c.OnWindow(w)
	}
}

// poll is the dynopt thread's periodic wake-up: it feeds any new profile
// windows to the phase detector and reacts to phase events. The returned
// charge bills patch installations to the monitored thread.
func (c *Controller) poll(now uint64) uint64 {
	var charge uint64
	for _, w := range c.newWindows {
		ev, info := c.det.Observe(w)
		switch ev {
		case PhaseStable:
			pc := uint64(info.PCCenter)
			c.emit(obs.Event{
				Cycle: now, Kind: obs.KindPhaseDetected, Loop: c.loopOf(pc), PC: pc,
				A: uint64(len(info.Windows)), V: info.CPI, W: info.DearPerK,
			})
			charge += c.onStablePhase(now, info)
		case PhaseChanged:
			c.emit(obs.Event{Cycle: now, Kind: obs.KindPhaseChange, Loop: -1})
		}
	}
	c.newWindows = c.newWindows[:0]
	charge += c.pollInstrumentation(now)
	c.Stats.TableHits = c.det.TableHits
	c.Stats.TableMisses = c.det.TableMisses
	if c.pmu != nil {
		c.Stats.SamplesDropped = c.pmu.SamplesDropped
	}
	if c.Stats.FirstPatchCycle == 0 && c.Stats.TracesPatched > 0 {
		c.Stats.FirstPatchCycle = now
	}
	return charge
}

// sigMatches reports whether a phase signature was already handled.
func sigMatches(list []float64, sig, tol float64) bool {
	for _, s := range list {
		if math.Abs(s-sig) <= tol {
			return true
		}
	}
	return false
}

// onStablePhase runs trace selection and optimization for a newly stable
// phase, per §2.3-§3. now is the polling cycle, used to stamp events.
func (c *Controller) onStablePhase(now uint64, info *PhaseInfo) uint64 {
	tol := c.cfg.PCDev

	// A phase executing inside the trace pool was already optimized:
	// skip re-optimization but monitor profitability ("we may continue
	// to monitor the execution of the optimized trace to detect and fix
	// nonprofitable ones").
	if c.pool.Contains(uint64(info.PCCenter)) {
		c.Stats.SkipInPool++
		return c.checkProfitability(now, info)
	}
	if sigMatches(c.blacklist, info.PCCenter, tol) {
		return 0
	}
	if sigMatches(c.optimized, info.PCCenter, tol) {
		c.Stats.SkipOptimized++
		return 0
	}
	// Ignore phases without meaningful data-cache miss rates — either by
	// the DPI counter or, more sharply, by the rate of DEAR-qualifying
	// (>= 8 cycle) events prefetching could actually remove.
	if info.DPI < c.cfg.MinDPI || info.DearPerK < c.cfg.MinDearPerK {
		c.Stats.SkipLowMiss++
		c.optimized = append(c.optimized, info.PCCenter)
		return 0
	}

	// Trace selection reads the whole UEB for path-profile coverage;
	// delinquent-load identification uses only the windows that
	// established the stable phase, so stale startup misses cannot
	// justify prefetches for code that now hits in cache ("use
	// performance samples to locate the most recent delinquent loads").
	samples := c.ueb.Samples()
	recent := samples
	if len(info.Windows) > 0 {
		recent = c.ueb.SamplesSince(info.Windows[0].Seq)
	}
	traces := NewTraceSelector(c.cfg, c.code).Select(samples)
	for _, t := range traces {
		var isLoop uint64
		if t.IsLoop {
			isLoop = 1
		}
		c.emit(obs.Event{
			Cycle: now, Kind: obs.KindTraceSelected, Loop: c.loopOf(t.Start),
			PC: t.Start, A: uint64(len(t.Bundles)), B: isLoop,
		})
	}

	// One prefetch-policy decision per stable phase: with the selector on,
	// the live counters pick the policy; otherwise the configured one runs.
	if c.OnPolicyPoint != nil {
		c.OnPolicyPoint(now)
	}
	ctx := c.prefetchContext(info.CPI)
	pol := c.pf
	if c.sel != nil {
		pol = c.sel.Pick(ctx)
		pc := uint64(info.PCCenter)
		c.emit(obs.Event{
			Cycle: now, Kind: obs.KindPolicySelected, Loop: c.loopOf(pc), PC: pc,
			// B is this selection's ordinal: the count after emit.
			A: policyIndex(pol.PolicyName()), B: uint64(c.Stats.PolicySelections) + 1,
		})
	}
	c.pickShadows(ctx)

	var charge uint64
	anyInserted := false
	for _, t := range traces {
		if !t.IsLoop {
			continue
		}
		if c.isPatched(t.Start) {
			// This loop was already optimized in an earlier phase.
			continue
		}
		loads := FindDelinquentLoads(t, recent, c.cfg)
		if len(loads) == 0 {
			continue
		}
		events := 0
		for _, dl := range loads {
			events += dl.Count
		}
		if events < c.cfg.MinDearEvents {
			continue // not enough evidence of frequent misses
		}
		var pristine *Trace
		if c.cfg.Verify || c.sel != nil || len(c.shadows) > 0 {
			pristine = cloneTrace(t)
		}
		// With the selector on, a trace the picked policy saw nothing to
		// prefetch in (most often unclassifiable loads) is retried with
		// the fallback.
		res, fb := optimizeTrace(pol, c.sel, t, pristine, loads, ctx)
		if fb != nil {
			c.emit(obs.Event{
				Cycle: now, Kind: obs.KindPolicySwitched, Loop: c.loopOf(t.Start),
				PC: t.Start, A: policyIndex(pol.PolicyName()), B: policyIndex(fb.PolicyName()),
			})
		}
		c.followShadows(t, res, pristine, loads, ctx)
		if c.OnOptimize != nil {
			c.OnOptimize(ctx.Cycle, t, loads, res)
		}
		c.Stats.DirectPrefetches += res.Direct
		c.Stats.IndirectPrefetches += res.Indirect
		c.Stats.PointerPrefetches += res.Pointer
		c.Stats.AnalysisFailures += res.Failures
		c.Stats.SkipStaticLfetch += res.Skipped

		// §6 extension: if slice analysis failed on some loads, add
		// address-recording instrumentation to the same trace.
		instr := c.addInstrumentation(t, res, info)

		if (res.Total() == 0 && instr == nil) || c.cfg.DisableInsertion {
			continue
		}
		if !c.verifyTrace(now, t, pristine) {
			continue // fail-safe: leave the original code unpatched
		}
		addr, err := c.pool.Install(t)
		if err != nil {
			continue // pool full: stop patching, keep running
		}
		rec, err := applyPatch(c.code, t.Start, addr, info.CPI)
		if err != nil {
			continue
		}
		rec.TraceEnd = c.pool.seg.Base + uint64(c.pool.next)*16
		c.patches = append(c.patches, rec)
		c.emit(obs.Event{
			Cycle: now, Kind: obs.KindPatchInstalled, Loop: c.loopOf(rec.Entry),
			PC: rec.Entry, A: rec.TraceAddr, B: rec.TraceEnd, C: uint64(res.Total()),
		})
		charge += c.cfg.PatchCharge
		if instr != nil {
			instr.patch = rec
			c.instr = append(c.instr, instr)
		}
		if res.Total() > 0 {
			anyInserted = true
		}
	}
	if anyInserted {
		c.Stats.PhasesOptimized++
	}
	c.optimized = append(c.optimized, info.PCCenter)
	return charge
}

// isPatched reports whether a patch is already installed at entry.
func (c *Controller) isPatched(entry uint64) bool {
	for _, rec := range c.patches {
		if rec.Active && rec.Entry == entry {
			return true
		}
	}
	return false
}

// checkProfitability unpatches traces whose phase now runs slower than
// before patching.
func (c *Controller) checkProfitability(now uint64, info *PhaseInfo) uint64 {
	pc := uint64(info.PCCenter)
	for _, rec := range c.patches {
		if !rec.Active || pc < rec.TraceAddr || pc >= rec.TraceEnd {
			continue
		}
		if info.CPI > rec.PrePatch*c.cfg.UnpatchSlowdown {
			if err := undoPatch(c.code, rec); err == nil {
				c.blacklist = append(c.blacklist, info.PCCenter)
				c.emit(obs.Event{
					Cycle: now, Kind: obs.KindUnpatch, Loop: c.loopOf(rec.Entry),
					PC: rec.Entry, A: rec.TraceAddr, V: info.CPI, W: rec.PrePatch,
				})
				return c.cfg.PatchCharge
			}
		}
	}
	return 0
}

// Patches returns the installed patch records (active and undone).
func (c *Controller) Patches() []*PatchRecord { return c.patches }

// UnpatchAll restores the saved original bundle of every active patch —
// the dyn_close path, and the hook the differential harness uses to check
// that patching is fully reversible: after UnpatchAll the main code segment
// must be bundle-for-bundle identical to the image as built. Each removal
// is an Unpatch event with no observed phase CPI (V=0).
func (c *Controller) UnpatchAll() error {
	var now uint64
	if c.obs.m != nil {
		now = c.obs.m.Now()
	}
	for _, rec := range c.patches {
		if !rec.Active {
			continue
		}
		if err := undoPatch(c.code, rec); err != nil {
			return err
		}
		c.emit(obs.Event{
			Cycle: now, Kind: obs.KindUnpatch, Loop: c.loopOf(rec.Entry),
			PC: rec.Entry, A: rec.TraceAddr, W: rec.PrePatch,
		})
	}
	return nil
}

// Pool returns the trace pool, for inspection.
func (c *Controller) Pool() *TracePool { return c.pool }

// prefetchContext snapshots the runtime signals a prefetch policy may
// consult. Read-only: gathering it never perturbs the machine, so the
// default (paper) policy — which looks only at PhaseCPI — behaves exactly
// as before the policy layer existed.
func (c *Controller) prefetchContext(phaseCPI float64) PrefetchContext {
	ctx := PrefetchContext{PhaseCPI: phaseCPI}
	if m := c.obs.m; m != nil {
		ctx.Cycle = m.Now()
		if h := m.Hier; h != nil {
			ctx.Prefetch = h.Prefetch()
			ctx.BusWaitCycles = h.BusWaitCycles
			ctx.MemAccesses = h.MemAccesses
		}
	}
	return ctx
}

// PolicyKey names the effective prefetch-policy configuration.
func (c *Controller) PolicyKey() string { return c.cfg.PolicyKey() }

// PolicyUse reports, per policy name, how many decisions the runtime
// selector resolved to it (first picks plus fallback wins). Nil without
// Config.Selector.
func (c *Controller) PolicyUse() map[string]int {
	if c.sel == nil {
		return nil
	}
	return c.sel.Use()
}
