package cpu

import (
	"sort"

	"repro/internal/isa"
)

// Simulated-execution profiler: a cycle-sampling poll hook that attributes
// elapsed simulated cycles — and the memory-system events behind them — to
// the bundle being fetched when the sampler fires. It piggybacks on the
// existing next-event hook scheduler, so with the profiler off (the
// default) the run loop carries no extra work at all, and with it on the
// per-bundle cost is the one hookNext compare every run already pays.
//
// Attribution is by delta, not by sample count: each fire charges the
// cycles elapsed since the previous fire (and the deltas of the
// load-stall, L2/L3-miss and prefetch-usefulness counters over the same
// span) to the current fetch bundle. On an in-order core whose clock
// advances in bulk at stall points this is the statistical estimator that
// converges on the true per-PC cost; counting fires would not, because the
// catch-up scheduling in runHooks makes fire counts non-proportional to
// cycles whenever one bundle stalls past several intervals.
//
// The hook returns charge 0, so enabling the profiler cannot move the
// simulated clock, the hook schedule of any co-registered controller, or
// any Stats field — sampled and unsampled runs are bit-identical in every
// architectural and timing observable (pinned by TestProfilerNonPerturbing).

// PCSample is the profile cell of one bundle address: how often the
// sampler observed fetch there and the event deltas charged to it.
type PCSample struct {
	Samples   uint64 // sampler fires observing this bundle
	Cycles    uint64 // simulated cycles attributed
	LoadStall uint64 // scoreboard load-stall cycles attributed
	L2Miss    uint64 // L2 data misses attributed
	L3Miss    uint64 // L3 misses attributed
	PfUseful  uint64 // prefetched lines first-used in the span
	PfLate    uint64 // prefetches that arrived late in the span
}

// add accumulates o into s (merge path for aggregation).
func (s *PCSample) add(o PCSample) {
	s.Samples += o.Samples
	s.Cycles += o.Cycles
	s.LoadStall += o.LoadStall
	s.L2Miss += o.L2Miss
	s.L3Miss += o.L3Miss
	s.PfUseful += o.PfUseful
	s.PfLate += o.PfLate
}

// profiler is the CPU's sampling state. Inactive (and cost-free) until
// EnableProfiler registers the hook.
type profiler struct {
	enabled  bool
	interval uint64
	samples  map[uint64]*PCSample

	// Counter values at the previous fire; the attribution deltas are
	// computed against these.
	lastCycle     uint64
	lastLoadStall uint64
	lastL2Miss    uint64
	lastL3Miss    uint64
	lastPfUseful  uint64
	lastPfLate    uint64
}

// EnableProfiler registers the cycle sampler to fire every interval cycles
// (at bundle boundaries, like every poll hook). Call once during setup,
// before the run loop; a second call replaces the sampling state but would
// stack a second hook, so it panics instead. Intervals with small factors
// in common with loop trip cycles alias harmonically; callers should
// prefer a prime (adore-run -annotate/-profile use 4093).
//
//adore:coldpath
func (c *CPU) EnableProfiler(interval uint64) {
	if interval == 0 {
		panic("cpu: profiler interval must be positive")
	}
	if c.prof.enabled {
		panic("cpu: profiler already enabled")
	}
	c.prof.enabled = true
	c.prof.interval = interval
	c.prof.samples = make(map[uint64]*PCSample)
	c.AddPollHook(interval, c.profSample)
}

// profSample is the sampler's poll hook. It always returns 0: the
// profiler observes the simulation and must never perturb it.
func (c *CPU) profSample(now uint64) uint64 {
	p := &c.prof
	pc := c.pc &^ uint64(isa.BundleBytes-1)
	s := p.samples[pc]
	if s == nil {
		s = p.newCell(pc)
	}
	s.Samples++
	s.Cycles += now - p.lastCycle
	p.lastCycle = now
	s.LoadStall += c.Stats.LoadStalls - p.lastLoadStall
	p.lastLoadStall = c.Stats.LoadStalls
	if h := c.Hier; h != nil {
		s.L2Miss += h.L2.Stats.Misses - p.lastL2Miss
		p.lastL2Miss = h.L2.Stats.Misses
		s.L3Miss += h.L3.Stats.Misses - p.lastL3Miss
		p.lastL3Miss = h.L3.Stats.Misses
		useful := h.L1D.Stats.PfUseful + h.L2.Stats.PfUseful
		s.PfUseful += useful - p.lastPfUseful
		p.lastPfUseful = useful
		late := h.L1D.Stats.PfLate + h.L2.Stats.PfLate
		s.PfLate += late - p.lastPfLate
		p.lastPfLate = late
	}
	return 0
}

// newCell creates the profile cell for a bundle seen for the first time —
// once per distinct sampled address over the whole run, not per fire.
//
//adore:coldpath
func (p *profiler) newCell(pc uint64) *PCSample {
	s := new(PCSample)
	p.samples[pc] = s
	return s
}

// resetProfiler clears accumulated samples and delta baselines for
// CPU.Reset; the hook registration (and enablement) survives, so a reused
// machine profiles its re-run from cycle 0.
func (c *CPU) resetProfiler() {
	p := &c.prof
	if !p.enabled {
		return
	}
	for pc := range p.samples {
		delete(p.samples, pc)
	}
	p.lastCycle = 0
	p.lastLoadStall = 0
	p.lastL2Miss = 0
	p.lastL3Miss = 0
	p.lastPfUseful = 0
	p.lastPfLate = 0
}

// ProfilePCs returns the sampled bundle addresses in ascending order —
// the deterministic iteration order profile export needs. Read-out path.
//
//adore:coldpath
func (c *CPU) ProfilePCs() []uint64 {
	if len(c.prof.samples) == 0 {
		return nil
	}
	pcs := make([]uint64, 0, len(c.prof.samples))
	for pc := range c.prof.samples {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	return pcs
}

// ProfileSample returns the cell of one bundle address (zero value if the
// sampler never observed it). Read-out path.
func (c *CPU) ProfileSample(pc uint64) PCSample {
	if s := c.prof.samples[pc]; s != nil {
		return *s
	}
	return PCSample{}
}

// ProfileSamples returns a copy of the whole profile, keyed by bundle
// address. Read-out path.
//
//adore:coldpath
func (c *CPU) ProfileSamples() map[uint64]PCSample {
	if c.prof.samples == nil {
		return nil
	}
	out := make(map[uint64]PCSample, len(c.prof.samples))
	for pc, s := range c.prof.samples {
		out[pc] = *s
	}
	return out
}
