// Package cpu simulates an in-order EPIC core in the style of the
// Itanium 2: it executes the internal/isa instruction set with sequential
// semantics and accounts cycles with a separate issue model — up to two
// bundles per cycle, per-port structural limits, scoreboarded load-use
// stalls, static backward-taken/forward-not-taken branch prediction, and an
// instruction-cache front end.
//
// Separating function from timing keeps the interpreter simple and the
// timing assumptions explicit; DESIGN.md §1 lists what is and is not
// modelled.
package cpu

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/pmu"
	"repro/internal/program"
)

// Config sets the core's issue resources and penalties. The defaults
// approximate Itanium 2's front end for the purposes of this reproduction.
type Config struct {
	IssueBundles      int // bundles issued per cycle (Itanium 2: 2)
	LoadPorts         int // loads + lfetches per cycle (2)
	StorePorts        int // stores per cycle (2)
	FPUnits           int // floating-point ops per cycle (2)
	BranchUnits       int // branches per cycle (3)
	MispredictPenalty int // cycles lost on a mispredicted branch
	TakenBubble       int // front-end bubble on a correctly predicted taken branch
	FPLatency         int // FP op result latency (fma: 4)
	ModelICache       bool

	// Accounting enables CPI-stack cycle attribution (see accounting.go):
	// every elapsed cycle is split into busy / load-stall / flush / fetch,
	// whole-core and — with SetImage — per compiler loop. Off by default;
	// when off the accounting code is never reached and Stats are
	// bit-identical to a run without it.
	Accounting bool
}

// DefaultConfig returns the standard core model.
func DefaultConfig() Config {
	return Config{
		IssueBundles:      2,
		LoadPorts:         2,
		StorePorts:        2,
		FPUnits:           2,
		BranchUnits:       3,
		MispredictPenalty: 6,
		TakenBubble:       1,
		FPLatency:         4,
		ModelICache:       true,
	}
}

// PollHook is host code invoked periodically at bundle boundaries — the
// mechanism by which the ADORE dynopt "thread" gets control. The hook runs
// on the (simulated) second processor: its own work is free, but any cycles
// it wants charged to the monitored thread (e.g. for stopping it during
// patching) are returned.
type PollHook func(now uint64) (charge uint64)

type pollEntry struct {
	interval uint64
	next     uint64
	fn       PollHook
}

// Stats summarizes one run.
type Stats struct {
	Cycles        uint64
	Retired       uint64
	Loads         uint64
	Stores        uint64
	Prefetches    uint64
	Branches      uint64
	Mispredicts   uint64
	LoadStalls    uint64 // cycles lost waiting for operand results
	ICacheStalls  uint64
	SampleCharges uint64 // cycles charged for PMU overflow handling
}

// CPI returns cycles per retired instruction.
func (s Stats) CPI() float64 {
	if s.Retired == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Retired)
}

// CPU is one simulated core plus its architectural state.
type CPU struct {
	cfg Config

	GR [isa.NumGR]uint64
	FR [isa.NumFR]float64
	PR [isa.NumPR]bool
	BR [isa.NumBR]uint64

	Code *program.CodeSpace
	Mem  *memsys.Memory
	Hier *memsys.Hierarchy
	PMU  *pmu.PMU

	pc     uint64
	halted bool

	cycle   uint64
	grReady [isa.NumGR]uint64
	frReady [isa.NumFR]uint64

	// per-cycle issue accounting
	bundlesUsed int
	loadsUsed   int
	storesUsed  int
	fpUsed      int
	brUsed      int

	lastFetchLine uint64
	hooks         []pollEntry
	// hookNext is the earliest next-fire cycle across all poll hooks
	// (^0 when none) — the next-event gate that keeps the per-bundle
	// cost of hook scheduling to one compare.
	hookNext uint64
	// preHook, when set, observes hook boundaries just before the due
	// hooks run (OnHookBoundary) — the fork engine's snapshot gate. It
	// rides the existing hookNext compare, so the nil default adds no
	// per-bundle work.
	preHook func(now uint64)

	pre predecode // direct-indexed code image (predecode.go)

	// modelI / l1iShift cache the I-cache front-end decision and the
	// line-number shift so the run loop neither re-tests config nor
	// divides.
	modelI   bool
	l1iShift uint
	// The caches the CPU's accesses enter first, and their hit latencies,
	// hoisted out of the hierarchy: a ready memo hit (Cache.ReadyHit) is
	// one call that costs the level's hit latency, and anything else
	// takes the hierarchy's full Access* path. l2HitLat doubles as the
	// PMU's miss threshold: an FP load slower than an L2 hit counts as a
	// data-cache miss.
	l1i, l1d, l2   *memsys.Cache
	l1iLat, l1dLat uint64
	l2HitLat       uint64

	// sampleAt is the cycle at which the next retire must hand the PMU its
	// sample (the PMU's NextSampleAt; ^0 without a PMU or while sampling
	// is off), so retire is an increment and one compare. It is re-read
	// wherever the PMU's schedule can change: after a sample, after the
	// poll hooks run and on entry to RunContext.
	sampleAt uint64
	// pmuRetired is the Stats.Retired count already folded into
	// PMU.Retired. The PMU's counter is brought up to date only where
	// something outside the run loop can read it: at a sample, at a hook
	// boundary and when RunContext returns (foldRetired).
	pmuRetired uint64

	acct accounting // CPI-stack attribution (Config.Accounting)
	prof profiler   // cycle-sampling profiler (EnableProfiler; profile.go)

	Stats Stats
}

// New wires a CPU to its code space, memory, hierarchy and PMU. hier and p
// may be nil (no timing detail / no monitoring) for unit tests.
func New(cfg Config, code *program.CodeSpace, mem *memsys.Memory, hier *memsys.Hierarchy, p *pmu.PMU) *CPU {
	c := &CPU{cfg: cfg, Code: code, Mem: mem, Hier: hier, PMU: p}
	c.FR[1] = 1.0
	c.lastFetchLine = ^uint64(0)
	c.hookNext = ^uint64(0)
	c.acct.curLoop = -1
	c.modelI = cfg.ModelICache && hier != nil
	if c.modelI {
		c.l1iShift = uint(bits.TrailingZeros64(uint64(hier.L1I.LineSize())))
	}
	if hier != nil {
		hc := hier.Config()
		c.l1i, c.l1d, c.l2 = hier.L1I, hier.L1D, hier.L2
		c.l1iLat, c.l1dLat, c.l2HitLat = uint64(hc.L1I.HitLat), uint64(hc.L1D.HitLat), uint64(hc.L2.HitLat)
	}
	c.syncSampleGate()
	c.attachCode(code)
	return c
}

// Reset returns the CPU to its power-on state — architectural registers,
// scoreboard, cycle clock, statistics, fetch-line tracking, hook schedules
// and CPI-stack accounting — so a reused machine re-runs the same image
// bit-identically. The predecoded code image is kept (the code space is
// unchanged); memory, hierarchy and PMU belong to the caller and are not
// touched.
func (c *CPU) Reset() {
	c.GR = [isa.NumGR]uint64{}
	c.FR = [isa.NumFR]float64{}
	c.PR = [isa.NumPR]bool{}
	c.BR = [isa.NumBR]uint64{}
	c.FR[1] = 1.0
	c.pc = 0
	c.halted = false
	c.cycle = 0
	c.grReady = [isa.NumGR]uint64{}
	c.frReady = [isa.NumFR]uint64{}
	c.bundlesUsed = 0
	c.loadsUsed = 0
	c.storesUsed = 0
	c.fpUsed = 0
	c.brUsed = 0
	c.lastFetchLine = ^uint64(0)
	c.hookNext = ^uint64(0)
	for i := range c.hooks {
		c.hooks[i].next = c.hooks[i].interval
		if c.hooks[i].next < c.hookNext {
			c.hookNext = c.hooks[i].next
		}
	}
	c.Stats = Stats{}
	c.pmuRetired = 0
	c.syncSampleGate()
	c.resetAccounting()
	c.resetProfiler()
}

// SetPC sets the next fetch address.
func (c *CPU) SetPC(pc uint64) { c.pc = pc }

// PC returns the current fetch address.
func (c *CPU) PC() uint64 { return c.pc }

// Now returns the current cycle count.
func (c *CPU) Now() uint64 { return c.cycle }

// Halted reports whether the program has executed halt (or returned from
// its outermost frame).
func (c *CPU) Halted() bool { return c.halted }

// OnHookBoundary registers fn to observe every hook boundary — each point
// where the run loop pauses at a bundle boundary to run due poll hooks —
// immediately before those hooks fire. The callback must not perturb the
// simulation; the fork engine uses it to snapshot machine state at
// positions a restored run can resume from (the pending hooks re-fire
// under the continuation's own configuration). Setup-time, not per-cycle.
//
//adore:coldpath
func (c *CPU) OnHookBoundary(fn func(now uint64)) { c.preHook = fn }

// AddPollHook registers fn to run every interval cycles, at bundle
// boundaries. Called during setup, before the run loop starts.
//
//adore:coldpath
func (c *CPU) AddPollHook(interval uint64, fn PollHook) {
	next := c.cycle + interval
	c.hooks = append(c.hooks, pollEntry{interval: interval, next: next, fn: fn})
	if next < c.hookNext {
		c.hookNext = next
	}
}

// advanceCycle moves time forward to at least target and resets the issue
// window when the cycle changes. cat names the CPI-stack category the
// skipped cycles belong to; with Config.Accounting off it is ignored.
func (c *CPU) advanceCycle(target uint64, cat acctCat) {
	if target <= c.cycle {
		return
	}
	// Busy is the residual accounting category (computed on read), so
	// busy advances — the per-cycle hot path — skip attribution; cat is a
	// constant at every call site, folding this branch away when inlined.
	if cat != acctBusy && c.cfg.Accounting {
		c.attribute(cat, target-c.cycle)
	}
	c.cycle = target
	c.bundlesUsed = 0
	c.loadsUsed = 0
	c.storesUsed = 0
	c.fpUsed = 0
	c.brUsed = 0
}

// nextCycle bumps time by one cycle and opens a fresh issue window. The
// cycle left behind was issue progress, so it accounts as busy — the
// residual category, computed on read — which is why this is a hand-
// specialized advanceCycle(c.cycle+1, acctBusy): with no attribution work
// it is cheap enough that chargeBundle and reservePort, which call it
// every other bundle, stay within the inlining budget.
func (c *CPU) nextCycle() {
	c.cycle++
	c.bundlesUsed = 0
	c.loadsUsed = 0
	c.storesUsed = 0
	c.fpUsed = 0
	c.brUsed = 0
}

// chargeBundle accounts the issue of one more bundle in this cycle.
func (c *CPU) chargeBundle() {
	if c.bundlesUsed >= c.cfg.IssueBundles {
		c.nextCycle()
	}
	c.bundlesUsed++
}

// ctxCheckEvery is how many bundles the run loop executes between context
// polls: frequent enough to stop a multi-billion-cycle simulation promptly,
// rare enough that the check costs nothing against the interpreter.
const ctxCheckEvery = 1 << 14

// Run executes until halt or until maxInstructions retire (0 = unlimited).
func (c *CPU) Run(maxInstructions uint64) (Stats, error) {
	return c.RunContext(context.Background(), maxInstructions)
}

// RunContext is Run with cancellation: ctx is polled every ctxCheckEvery
// bundles, alongside the maxInstructions safety stop, and its error is
// returned if it fires mid-run. A context that can never be cancelled adds
// no per-bundle cost.
//
// Each iteration fetches and executes one bundle (or the tail of one,
// after a branch into a mid-bundle slot) with one call, executeBundle; a
// move to a new I-line that hits L1I's memo ready adds one more.
func (c *CPU) RunContext(ctx context.Context, maxInstructions uint64) (Stats, error) {
	// The PMU may have been started, stopped or restored since the last
	// run; every exit folds the retired count back into it.
	c.syncSampleGate()
	defer c.foldRetired()
	limit := maxInstructions
	if limit == 0 {
		limit = ^uint64(0)
	}
	done := ctx.Done()
	sinceCheck := 0
	for !c.halted && c.Stats.Retired < limit {
		if done != nil {
			if sinceCheck--; sinceCheck < 0 {
				sinceCheck = ctxCheckEvery
				select {
				case <-done:
					c.Stats.Cycles = c.cycle
					return c.Stats, ctx.Err()
				default:
				}
			}
		}
		// Poll hooks fire at bundle boundaries; hookNext is the earliest
		// next-fire cycle across hooks, so the no-hook (and between-fires)
		// path is a single compare.
		if c.cycle >= c.hookNext {
			c.hookBoundary()
		}

		// A faulting bundle (unmapped fetch, bad slot, unimplemented op)
		// must still report current time: callers inspect Stats.Cycles of
		// failed runs.
		bundleAddr := c.pc &^ uint64(isa.BundleBytes-1)
		slot := int(c.pc & uint64(isa.BundleBytes-1))
		if slot > 2 {
			c.Stats.Cycles = c.cycle
			return c.Stats, fmt.Errorf("cpu: bad slot in pc %#x", c.pc)
		}
		e := c.fetch(bundleAddr)
		if e == nil {
			c.Stats.Cycles = c.cycle
			return c.Stats, fmt.Errorf("cpu: fetch from unmapped address %#x", bundleAddr)
		}
		if c.cfg.Accounting {
			c.noteFetch(bundleAddr)
		}

		// Instruction cache: charge when fetch moves to a new I-line.
		if c.modelI {
			if line := bundleAddr >> c.l1iShift; line != c.lastFetchLine {
				c.lastFetchLine = line
				lat := c.l1iLat
				if !c.l1i.ReadyHit(c.cycle, bundleAddr, false, true) {
					lat = c.Hier.AccessInst(c.cycle, bundleAddr).Latency
				}
				if lat > 0 {
					c.Stats.ICacheStalls += lat
					c.advanceCycle(c.cycle+lat, acctFetch)
				}
			}
		}

		c.chargeBundle()
		if err := c.executeBundle(bundleAddr, e, slot); err != nil {
			c.Stats.Cycles = c.cycle
			return c.Stats, err
		}
	}
	c.Stats.Cycles = c.cycle
	return c.Stats, nil
}

// hookBoundary runs the due poll hooks at a bundle boundary. Hooks and
// the fork engine's snapshot read the PMU's counters, and hooks may start
// or stop sampling.
func (c *CPU) hookBoundary() {
	c.foldRetired()
	if c.preHook != nil {
		c.preHook(c.cycle)
	}
	c.runHooks()
	c.syncSampleGate()
}

// runHooks fires every due poll hook, in registration order, and
// reschedules hookNext. A hook's charge advances the clock, which may make
// a later-registered hook due within the same call — it fires here too,
// exactly as in the per-step scan this scheduler replaced — but each hook
// fires at most once per bundle boundary: catch-up after a long charge
// advances next past the skipped fire times without re-invoking the hook.
func (c *CPU) runHooks() {
	for i := range c.hooks {
		h := &c.hooks[i]
		if c.cycle >= h.next {
			if charge := h.fn(c.cycle); charge > 0 {
				// Runtime charges (patching) account as busy: the
				// thread is executing the runtime's work.
				c.advanceCycle(c.cycle+charge, acctBusy)
			}
			for h.next <= c.cycle {
				h.next += h.interval
			}
		}
	}
	next := ^uint64(0)
	for i := range c.hooks {
		if c.hooks[i].next < next {
			next = c.hooks[i].next
		}
	}
	c.hookNext = next
}

// wait stalls until general register r is ready. The ready-now case — the
// overwhelming majority — is a load and a compare, inlined into execute's
// dispatch; the actual stall is outlined in stallUntil.
func (c *CPU) wait(r isa.Reg) {
	if c.grReady[r] > c.cycle {
		c.stallUntil(c.grReady[r])
	}
}

// waitF stalls until floating register r is ready.
func (c *CPU) waitF(r isa.FReg) {
	if c.frReady[r] > c.cycle {
		c.stallUntil(c.frReady[r])
	}
}

// stallUntil charges a scoreboard stall up to cycle t > now.
func (c *CPU) stallUntil(t uint64) {
	c.Stats.LoadStalls += t - c.cycle
	c.advanceCycle(t, acctLoadStall)
}

// reservePort blocks until the given port class has a free slot this cycle
// and claims it. The counters are fields reset by advanceCycle, so the loop
// terminates after at most one cycle bump.
func (c *CPU) reservePort(used *int, limit int) {
	for *used >= limit {
		c.nextCycle()
	}
	*used++
}

func (c *CPU) writeGR(r isa.Reg, v uint64, readyAt uint64) {
	if r == 0 {
		return
	}
	c.GR[r] = v
	c.grReady[r] = readyAt
}

func (c *CPU) writeFR(r isa.FReg, v float64, readyAt uint64) {
	if r <= 1 {
		return
	}
	c.FR[r] = v
	c.frReady[r] = readyAt
}

// executeBundle runs the slots of one bundle starting at slot, advancing
// pc past the bundle unless an instruction redirected control or halted.
// One call executes up to three instructions: the interpreter retires
// tens of millions of instructions per host second, so the per-slot call
// this loop replaced was a measurable slice of the whole run.
//
// No-effect runs (predecode.go) retire without dispatch. Nops never move
// the clock, so when no sample is due at a run's first slot none falls
// due inside it, and the whole run retires in one add: the bundle's
// leading run on entry, and the run after each executed slot in the add
// of that slot's own retire (retireRun). When a sample is due, the run's
// slots instead dispatch one by one to the OpNop case, so the sample
// lands on the exact nop.
func (c *CPU) executeBundle(bundleAddr uint64, e *execBundle, slot int) error {
	fpLat := uint64(c.cfg.FPLatency)
	s := slot + c.nopRun(e.nops[slot])
	for ; s < 3; s++ {
		pc := bundleAddr + uint64(s)
		in := &e.slots[s]
		// A predicated-off instruction occupies its slot and retires with
		// no effect and no stalls. Conditional branches handle their own
		// predicate so that not-taken outcomes still reach the PMU's
		// branch trace buffer.
		if in.QP != 0 && !c.PR[in.QP] && in.Op != isa.OpBrCond {
			s += c.retireRun(pc, e.nops[s+1])
			continue
		}

		switch in.Op {
		case isa.OpNop:
			// Reached only when a sample was due at this slot's run:
			// it retires below, alone if the sample is still due.

		case isa.OpAdd:
			c.wait(in.R2)
			c.wait(in.R3)
			c.writeGR(in.R1, c.GR[in.R2]+c.GR[in.R3], c.cycle+1)
		case isa.OpSub:
			c.wait(in.R2)
			c.wait(in.R3)
			c.writeGR(in.R1, c.GR[in.R2]-c.GR[in.R3], c.cycle+1)
		case isa.OpAddI:
			c.wait(in.R3)
			c.writeGR(in.R1, uint64(in.Imm)+c.GR[in.R3], c.cycle+1)
		case isa.OpAnd:
			c.wait(in.R2)
			c.wait(in.R3)
			c.writeGR(in.R1, c.GR[in.R2]&c.GR[in.R3], c.cycle+1)
		case isa.OpOr:
			c.wait(in.R2)
			c.wait(in.R3)
			c.writeGR(in.R1, c.GR[in.R2]|c.GR[in.R3], c.cycle+1)
		case isa.OpXor:
			c.wait(in.R2)
			c.wait(in.R3)
			c.writeGR(in.R1, c.GR[in.R2]^c.GR[in.R3], c.cycle+1)
		case isa.OpShlAdd:
			c.wait(in.R2)
			c.wait(in.R3)
			c.writeGR(in.R1, c.GR[in.R2]<<uint(in.Imm)+c.GR[in.R3], c.cycle+1)
		case isa.OpMov:
			c.wait(in.R3)
			c.writeGR(in.R1, c.GR[in.R3], c.cycle+1)
		case isa.OpMovI:
			c.writeGR(in.R1, uint64(in.Imm), c.cycle+1)
		case isa.OpShl:
			c.wait(in.R2)
			c.writeGR(in.R1, c.GR[in.R2]<<uint(in.Imm), c.cycle+1)
		case isa.OpShr:
			c.wait(in.R2)
			c.writeGR(in.R1, c.GR[in.R2]>>uint(in.Imm), c.cycle+1)
		case isa.OpSxt4:
			c.wait(in.R3)
			c.writeGR(in.R1, uint64(int64(int32(uint32(c.GR[in.R3])))), c.cycle+1)
		case isa.OpZxt4:
			c.wait(in.R3)
			c.writeGR(in.R1, uint64(uint32(c.GR[in.R3])), c.cycle+1)

		case isa.OpCmp:
			c.wait(in.R2)
			c.wait(in.R3)
			v := compare(in.Rel, c.GR[in.R2], c.GR[in.R3])
			c.setPred(in.P1, v)
			c.setPred(in.P2, !v)
		case isa.OpCmpI:
			c.wait(in.R3)
			v := compare(in.Rel, uint64(in.Imm), c.GR[in.R3])
			c.setPred(in.P1, v)
			c.setPred(in.P2, !v)

		case isa.OpLd1, isa.OpLd2, isa.OpLd4, isa.OpLd8, isa.OpLdS:
			c.wait(in.R3)
			c.reservePort(&c.loadsUsed, c.cfg.LoadPorts)
			addr := c.GR[in.R3]
			v := c.Mem.ReadN(addr, isa.AccessBytes(in.Op))
			lat := uint64(1)
			if c.Hier != nil {
				lat = c.l1dLat
				if !c.l1d.ReadyHit(c.cycle, addr, false, true) {
					r := c.Hier.AccessLoad(c.cycle, addr)
					lat = r.Latency
					if r.Level != memsys.LevelL1 && c.PMU != nil {
						c.PMU.OnLoadMiss(pc, addr, uint32(lat))
					}
				}
			}
			c.writeGR(in.R1, v, c.cycle+lat)
			c.postInc(in)
			c.Stats.Loads++

		case isa.OpLdF:
			c.wait(in.R3)
			c.reservePort(&c.loadsUsed, c.cfg.LoadPorts)
			addr := c.GR[in.R3]
			v := c.Mem.ReadFloat(addr)
			lat := uint64(1)
			if c.Hier != nil {
				// FP loads bypass L1; only count events slower than an
				// L2 hit as data-cache misses.
				lat = c.l2HitLat
				if !c.l2.ReadyHit(c.cycle, addr, false, true) {
					lat = c.Hier.AccessLoadFP(c.cycle, addr).Latency
					if c.PMU != nil && lat > c.l2HitLat {
						c.PMU.OnLoadMiss(pc, addr, uint32(lat))
					}
				}
			}
			c.writeFR(in.F1, v, c.cycle+lat)
			c.postInc(in)
			c.Stats.Loads++

		case isa.OpSt1, isa.OpSt2, isa.OpSt4, isa.OpSt8:
			c.wait(in.R2)
			c.wait(in.R3)
			c.reservePort(&c.storesUsed, c.cfg.StorePorts)
			addr := c.GR[in.R3]
			c.Mem.WriteN(addr, isa.AccessBytes(in.Op), c.GR[in.R2])
			if c.Hier != nil && !c.l1d.ReadyHit(c.cycle, addr, true, true) {
				c.Hier.AccessStore(c.cycle, addr)
			}
			c.postInc(in)
			c.Stats.Stores++

		case isa.OpStF:
			c.waitF(in.F1)
			c.wait(in.R3)
			c.reservePort(&c.storesUsed, c.cfg.StorePorts)
			addr := c.GR[in.R3]
			c.Mem.WriteFloat(addr, c.FR[in.F1])
			if c.Hier != nil && !c.l1d.ReadyHit(c.cycle, addr, true, true) {
				c.Hier.AccessStore(c.cycle, addr)
			}
			c.postInc(in)
			c.Stats.Stores++

		case isa.OpLfetch:
			c.wait(in.R3)
			c.reservePort(&c.loadsUsed, c.cfg.LoadPorts)
			if c.Hier != nil {
				if addr := c.GR[in.R3]; c.l1d.ReadyHit(c.cycle, addr, false, false) {
					c.Hier.PrefetchesIssued++
				} else {
					c.Hier.AccessPrefetch(c.cycle, addr)
				}
			}
			c.postInc(in)
			c.Stats.Prefetches++

		case isa.OpFma:
			c.reservePort(&c.fpUsed, c.cfg.FPUnits)
			c.waitF(in.F2)
			c.waitF(in.F3)
			c.waitF(in.F4)
			c.writeFR(in.F1, c.FR[in.F2]*c.FR[in.F3]+c.FR[in.F4], c.cycle+fpLat)
		case isa.OpFAdd:
			c.reservePort(&c.fpUsed, c.cfg.FPUnits)
			c.waitF(in.F2)
			c.waitF(in.F3)
			c.writeFR(in.F1, c.FR[in.F2]+c.FR[in.F3], c.cycle+fpLat)
		case isa.OpFMul:
			c.reservePort(&c.fpUsed, c.cfg.FPUnits)
			c.waitF(in.F2)
			c.waitF(in.F3)
			c.writeFR(in.F1, c.FR[in.F2]*c.FR[in.F3], c.cycle+fpLat)
		case isa.OpFSub:
			c.reservePort(&c.fpUsed, c.cfg.FPUnits)
			c.waitF(in.F2)
			c.waitF(in.F3)
			c.writeFR(in.F1, c.FR[in.F2]-c.FR[in.F3], c.cycle+fpLat)
		case isa.OpFNeg:
			c.reservePort(&c.fpUsed, c.cfg.FPUnits)
			c.waitF(in.F2)
			c.writeFR(in.F1, -c.FR[in.F2], c.cycle+fpLat)

		case isa.OpGetF:
			c.reservePort(&c.loadsUsed, c.cfg.LoadPorts)
			c.waitF(in.F2)
			c.writeGR(in.R1, math.Float64bits(c.FR[in.F2]), c.cycle+2)
		case isa.OpSetF:
			c.reservePort(&c.loadsUsed, c.cfg.LoadPorts)
			c.wait(in.R2)
			c.writeFR(in.F1, math.Float64frombits(c.GR[in.R2]), c.cycle+2)
		case isa.OpFCvtFX:
			c.reservePort(&c.fpUsed, c.cfg.FPUnits)
			c.waitF(in.F2)
			c.writeGR(in.R1, uint64(int64(c.FR[in.F2])), c.cycle+fpLat)
		case isa.OpFCvtXF:
			c.reservePort(&c.fpUsed, c.cfg.FPUnits)
			c.wait(in.R2)
			c.writeFR(in.F1, float64(int64(c.GR[in.R2])), c.cycle+fpLat)

		case isa.OpBrCond:
			if c.execBrCond(pc, in) {
				return nil
			}
			// Retired, and a mispredict may have moved the clock: the
			// run after it starts afresh, as a bundle's leading run does.
			s += c.nopRun(e.nops[s+1])
			continue
		case isa.OpBr:
			c.reservePort(&c.brUsed, c.cfg.BranchUnits)
			c.retire(pc)
			if c.PMU != nil {
				c.PMU.OnBranch(pc, in.Target, true)
			}
			c.redirect(in.Target, false)
			return nil
		case isa.OpBrCall:
			c.reservePort(&c.brUsed, c.cfg.BranchUnits)
			c.BR[in.B] = (pc &^ uint64(isa.BundleBytes-1)) + isa.BundleBytes
			c.retire(pc)
			if c.PMU != nil {
				c.PMU.OnBranch(pc, in.Target, true)
			}
			c.redirect(in.Target, false)
			return nil
		case isa.OpBrRet:
			c.reservePort(&c.brUsed, c.cfg.BranchUnits)
			target := c.BR[in.B]
			c.retire(pc)
			if target == 0 {
				c.halted = true
				c.Stats.Cycles = c.cycle
				return nil
			}
			if c.PMU != nil {
				c.PMU.OnBranch(pc, target, true)
			}
			c.redirect(target, false)
			return nil
		case isa.OpHalt:
			c.retire(pc)
			c.halted = true
			c.Stats.Cycles = c.cycle
			return nil

		default:
			return fmt.Errorf("cpu: unimplemented op %s at %#x", in.Op, pc)
		}

		s += c.retireRun(pc, e.nops[s+1])
	}
	c.pc = bundleAddr + isa.BundleBytes
	return nil
}

// execBrCond executes a conditional branch, including its PMU reporting and
// BTFN prediction accounting, and reports whether it redirected fetch.
func (c *CPU) execBrCond(pc uint64, in *isa.Inst) bool {
	c.reservePort(&c.brUsed, c.cfg.BranchUnits)
	taken := in.QP == 0 || c.PR[in.QP]
	c.retire(pc)
	if c.PMU != nil {
		c.PMU.OnBranch(pc, in.Target, taken)
	}
	backward := in.Target <= pc
	if taken {
		c.redirect(in.Target, !backward)
		return true
	}
	if backward {
		// BTFN predicted taken: a not-taken backward branch (loop
		// exit) mispredicts.
		c.mispredict()
	}
	return false
}

// redirect moves fetch to target, charging the misprediction penalty or the
// taken-branch bubble.
func (c *CPU) redirect(target uint64, mispredicted bool) {
	c.Stats.Branches++
	if mispredicted {
		c.mispredict()
	} else if c.cfg.TakenBubble > 0 {
		c.advanceCycle(c.cycle+uint64(c.cfg.TakenBubble), acctFetch)
	}
	c.pc = target
}

func (c *CPU) mispredict() {
	c.Stats.Mispredicts++
	c.advanceCycle(c.cycle+uint64(c.cfg.MispredictPenalty), acctFlush)
}

func (c *CPU) postInc(in *isa.Inst) {
	if in.PostInc != 0 && in.R3 != 0 {
		c.GR[in.R3] += uint64(in.PostInc)
		c.grReady[in.R3] = c.cycle + 1
	}
}

func (c *CPU) setPred(p isa.PReg, v bool) {
	if p != 0 {
		c.PR[p] = v
	}
}

// retire counts one retired instruction and gives the PMU its sampling
// opportunity: an increment and a compare against sampleAt, which inline
// into execute's dispatch cases whether or not a PMU is attached. The
// sample itself lives in takeSample.
func (c *CPU) retire(pc uint64) {
	c.Stats.Retired++
	if c.cycle >= c.sampleAt {
		c.takeSample(pc)
	}
}

// retireRun retires the instruction at pc together with the n no-effect
// slots after it and returns how many of those it retired: all of them,
// in the same add, when no sample is due; none when the instruction's own
// retire takes a sample, so each nop then retires through dispatch.
func (c *CPU) retireRun(pc uint64, n uint8) int {
	if c.cycle < c.sampleAt {
		c.Stats.Retired += uint64(n) + 1
		return int(n)
	}
	c.retireSample(pc)
	return 0
}

// nopRun retires a run of n no-effect slots whose retire no other one
// shares — a bundle's leading run, or the run after a not-taken
// conditional branch, which retires itself — and returns how many it
// retired: n when no sample is due, otherwise none, leaving the first of
// them to take the sample.
func (c *CPU) nopRun(n uint8) int {
	if c.cycle < c.sampleAt {
		c.Stats.Retired += uint64(n)
		return int(n)
	}
	return 0
}

// retireSample retires the instruction at pc, whose retire takes the
// sample due: retireRun's slow path, kept out of line so retireRun
// inlines into executeBundle.
//
//go:noinline
func (c *CPU) retireSample(pc uint64) {
	c.Stats.Retired++
	c.takeSample(pc)
}

func (c *CPU) takeSample(pc uint64) {
	c.foldRetired()
	before := c.PMU.OverheadCycles
	c.PMU.TakeSample(pc, c.cycle)
	c.syncSampleGate()
	if d := c.PMU.OverheadCycles - before; d > 0 {
		c.Stats.SampleCharges += d
		// Sample-handler charges account as busy, like any other
		// runtime work billed to the thread.
		c.advanceCycle(c.cycle+d, acctBusy)
	}
}

// syncSampleGate re-reads the PMU's sampling schedule into sampleAt.
func (c *CPU) syncSampleGate() {
	c.sampleAt = ^uint64(0)
	if c.PMU != nil {
		c.sampleAt = c.PMU.NextSampleAt()
	}
}

// foldRetired brings PMU.Retired up to date with the instructions retired
// since the last fold.
func (c *CPU) foldRetired() {
	if c.PMU != nil {
		c.PMU.Retired += c.Stats.Retired - c.pmuRetired
	}
	c.pmuRetired = c.Stats.Retired
}

func compare(rel isa.CmpRel, a, b uint64) bool { return isa.Compare(rel, a, b) }
