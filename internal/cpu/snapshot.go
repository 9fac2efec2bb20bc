package cpu

import (
	"fmt"

	"repro/internal/isa"
)

// Snapshotting for the checkpoint/fork engine (DESIGN.md §16). A CPU
// snapshot captures every run-varying field of the core: architectural
// registers, control state, the cycle clock and scoreboards, the issue
// window, the hook schedule, statistics, and the accounting and profiler
// state. It does NOT capture the wired subsystems (Code, Mem, Hier, PMU
// have their own snapshots), the predecoded code image (derived state,
// kept coherent by code-space change hooks), or registered hook functions
// (host closures — a restored machine keeps the hooks its own assembly
// registered, and Restore validates that their count and intervals match
// the snapshot's so the restored schedule is meaningful).
//
// Snapshots are taken at hook boundaries (OnHookBoundary): the capture
// runs before the due hooks fire, and a restored machine's first bundle
// re-enters the same boundary and fires the same due hooks — under its
// own hook closures, which is what lets a fork continuation re-make the
// pending policy decision with a different configuration.

// hookState is the schedule of one registered poll hook.
type hookState struct {
	interval uint64
	next     uint64
}

// acctState deep-copies the CPI-stack attribution state (accounting.go).
// The attached image is not captured: Restore re-resolves the per-loop
// cache against the receiver's own image, which machine assembly attached.
type acctState struct {
	stack      [4]uint64
	loops      map[int][5]uint64
	curLoop    int
	curLo      uint64
	curHi      uint64
	lastSwitch uint64
}

// profState deep-copies the cycle-sampling profiler state (profile.go).
type profState struct {
	enabled  bool
	interval uint64
	samples  map[uint64]PCSample

	lastCycle     uint64
	lastLoadStall uint64
	lastL2Miss    uint64
	lastL3Miss    uint64
	lastPfUseful  uint64
	lastPfLate    uint64
}

// Snapshot captures the CPU's run-varying state.
type Snapshot struct {
	cfg Config

	gr [isa.NumGR]uint64
	fr [isa.NumFR]float64
	pr [isa.NumPR]bool
	br [isa.NumBR]uint64

	pc     uint64
	halted bool

	cycle   uint64
	grReady [isa.NumGR]uint64
	frReady [isa.NumFR]uint64

	bundlesUsed int
	loadsUsed   int
	storesUsed  int
	fpUsed      int
	brUsed      int

	lastFetchLine uint64
	hooks         []hookState
	hookNext      uint64

	acct acctState
	prof profState

	stats      Stats
	pmuRetired uint64
}

// Snapshot deep-copies the CPU's mutable state.
func (c *CPU) Snapshot() *Snapshot {
	s := &Snapshot{
		cfg: c.cfg,

		gr: c.GR,
		fr: c.FR,
		pr: c.PR,
		br: c.BR,

		pc:     c.pc,
		halted: c.halted,

		cycle:   c.cycle,
		grReady: c.grReady,
		frReady: c.frReady,

		bundlesUsed: c.bundlesUsed,
		loadsUsed:   c.loadsUsed,
		storesUsed:  c.storesUsed,
		fpUsed:      c.fpUsed,
		brUsed:      c.brUsed,

		lastFetchLine: c.lastFetchLine,
		hookNext:      c.hookNext,

		stats:      c.Stats,
		pmuRetired: c.pmuRetired,
	}
	s.hooks = make([]hookState, len(c.hooks))
	for i := range c.hooks {
		s.hooks[i] = hookState{interval: c.hooks[i].interval, next: c.hooks[i].next}
	}

	s.acct = acctState{
		stack:      c.acct.stack,
		curLoop:    c.acct.curLoop,
		curLo:      c.acct.curLo,
		curHi:      c.acct.curHi,
		lastSwitch: c.acct.lastSwitch,
	}
	if c.acct.loops != nil {
		s.acct.loops = make(map[int][5]uint64, len(c.acct.loops))
		for id, v := range c.acct.loops {
			s.acct.loops[id] = *v
		}
	}

	s.prof = profState{
		enabled:       c.prof.enabled,
		interval:      c.prof.interval,
		lastCycle:     c.prof.lastCycle,
		lastLoadStall: c.prof.lastLoadStall,
		lastL2Miss:    c.prof.lastL2Miss,
		lastL3Miss:    c.prof.lastL3Miss,
		lastPfUseful:  c.prof.lastPfUseful,
		lastPfLate:    c.prof.lastPfLate,
	}
	if c.prof.samples != nil {
		s.prof.samples = make(map[uint64]PCSample, len(c.prof.samples))
		for pc, v := range c.prof.samples {
			s.prof.samples[pc] = *v
		}
	}
	return s
}

// Restore overwrites the CPU's mutable state from s. The receiver must be
// an identically assembled machine: same Config, same hooks (count and
// intervals, in registration order — the closures themselves belong to the
// receiver), same profiler enablement, and for per-loop accounting the
// same image attached via SetImage. Violations are errors and indicate the
// snapshot is being restored into a structurally different machine.
func (c *CPU) Restore(s *Snapshot) error {
	if c.cfg != s.cfg {
		return fmt.Errorf("cpu: snapshot config %+v does not match %+v", s.cfg, c.cfg)
	}
	if len(c.hooks) != len(s.hooks) {
		return fmt.Errorf("cpu: snapshot has %d poll hooks, machine has %d", len(s.hooks), len(c.hooks))
	}
	for i := range c.hooks {
		if c.hooks[i].interval != s.hooks[i].interval {
			return fmt.Errorf("cpu: poll hook %d interval %d does not match snapshot's %d",
				i, c.hooks[i].interval, s.hooks[i].interval)
		}
	}
	if c.prof.enabled != s.prof.enabled || c.prof.interval != s.prof.interval {
		return fmt.Errorf("cpu: profiler state (enabled %v interval %d) does not match snapshot's (%v %d)",
			c.prof.enabled, c.prof.interval, s.prof.enabled, s.prof.interval)
	}
	if (c.acct.loops != nil) != (s.acct.loops != nil) {
		return fmt.Errorf("cpu: per-loop accounting mismatch (machine %v, snapshot %v)",
			c.acct.loops != nil, s.acct.loops != nil)
	}

	c.GR = s.gr
	c.FR = s.fr
	c.PR = s.pr
	c.BR = s.br
	c.pc = s.pc
	c.halted = s.halted
	c.cycle = s.cycle
	c.grReady = s.grReady
	c.frReady = s.frReady
	c.bundlesUsed = s.bundlesUsed
	c.loadsUsed = s.loadsUsed
	c.storesUsed = s.storesUsed
	c.fpUsed = s.fpUsed
	c.brUsed = s.brUsed
	c.lastFetchLine = s.lastFetchLine
	for i := range c.hooks {
		c.hooks[i].next = s.hooks[i].next
	}
	c.hookNext = s.hookNext
	c.Stats = s.stats
	c.pmuRetired = s.pmuRetired
	// The PMU is restored separately, possibly after this; RunContext
	// re-reads its schedule on entry either way.
	c.syncSampleGate()

	c.acct.stack = s.acct.stack
	c.acct.curLoop = s.acct.curLoop
	c.acct.curLo = s.acct.curLo
	c.acct.curHi = s.acct.curHi
	c.acct.lastSwitch = s.acct.lastSwitch
	if s.acct.loops != nil {
		c.acct.loops = make(map[int]*[5]uint64, len(s.acct.loops))
		for id, v := range s.acct.loops {
			ls := v
			c.acct.loops[id] = &ls
		}
		c.acct.curStack = c.acct.loopStack(s.acct.curLoop)
	} else {
		c.acct.curStack = nil
	}

	if s.prof.enabled {
		c.prof.samples = make(map[uint64]*PCSample, len(s.prof.samples))
		for pc, v := range s.prof.samples {
			sv := v
			c.prof.samples[pc] = &sv
		}
		c.prof.lastCycle = s.prof.lastCycle
		c.prof.lastLoadStall = s.prof.lastLoadStall
		c.prof.lastL2Miss = s.prof.lastL2Miss
		c.prof.lastL3Miss = s.prof.lastL3Miss
		c.prof.lastPfUseful = s.prof.lastPfUseful
		c.prof.lastPfLate = s.prof.lastPfLate
	}
	return nil
}
