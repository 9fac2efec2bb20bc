package cpu

import (
	"sort"

	"repro/internal/program"
)

// CPI-stack accounting (Config.Accounting): every cycle the core's clock
// advances is attributed to exactly one category, so the categories always
// sum to Stats.Cycles — the invariant the Perfetto cpi_stack counter track
// and the observability acceptance test rely on. The split follows the
// classic CPI-stack decomposition:
//
//   - Busy: issue progress — cycles consumed by bundle issue and port
//     structural conflicts, plus the runtime-monitoring cycles billed to
//     the thread (PMU overflow handling, patch installation), which on
//     hardware surface as ordinary execution of the handler.
//   - LoadStall: scoreboard stalls waiting for a load (or long-latency op)
//     result — the cycles prefetching is meant to remove.
//   - Flush: branch-misprediction recovery.
//   - Fetch: front-end cycles — I-cache miss stalls and taken-branch
//     bubbles.
//
// Busy is the residual category: the stall categories are counted
// explicitly when their (comparatively rare, bulk) advances happen, and
// Busy is computed on read as elapsed cycles minus the rest. That keeps the
// per-cycle hot path (nextCycle) free of accounting work — the constant
// acctBusy folds the attribution branch away at the inlined call site.
//
// When an Image is attached (SetImage), the same split is additionally kept
// per innermost compiler loop (program.Image.LoopAt): stall categories are
// charged to the loop owning the bundle being executed, and each loop's
// total cycle ownership is accumulated lazily at loop switches, so steady
// state inside one loop (or one loop-free gap, including the trace pool)
// costs one range check per bundle. Time outside any static loop —
// prologue code and installed trace-pool traces — lands on loop -1.

// acctCat is the attribution category of one clock advance.
type acctCat uint8

const (
	acctBusy acctCat = iota // residual; never stored explicitly
	acctLoadStall
	acctFlush
	acctFetch
	// acctCycles is the per-loop slot holding the loop's total cycle
	// ownership, from which its residual Busy is derived.
	acctCycles
)

// CPIStack partitions elapsed cycles. The zero value is an empty stack.
type CPIStack struct {
	Busy      uint64
	LoadStall uint64
	Flush     uint64
	Fetch     uint64
}

// Total returns the cycles accounted across all categories.
func (s CPIStack) Total() uint64 {
	return s.Busy + s.LoadStall + s.Flush + s.Fetch
}

// Sub returns s - prev per category (deltas between two snapshots).
func (s CPIStack) Sub(prev CPIStack) CPIStack {
	return CPIStack{
		Busy:      s.Busy - prev.Busy,
		LoadStall: s.LoadStall - prev.LoadStall,
		Flush:     s.Flush - prev.Flush,
		Fetch:     s.Fetch - prev.Fetch,
	}
}

// accounting is the CPU's attribution state, active only with
// Config.Accounting. Counters are uint64 arrays indexed by acctCat — a
// plain indexed add on the hot path, converted to the exported CPIStack on
// read.
type accounting struct {
	stack [4]uint64 // whole-core explicit categories; acctBusy unused
	loops map[int]*[5]uint64

	img        *program.Image
	curLoop    int        // loop ID owning the current bundle; -1 outside loops
	curStack   *[5]uint64 // loops[curLoop], cached so attribute skips the map
	curLo      uint64     // cached [curLo,curHi) range sharing curLoop
	curHi      uint64
	lastSwitch uint64 // cycle when curLoop last changed (or was flushed)
}

// SetImage attaches compiler loop metadata so accounting splits per loop.
// Without an image the whole-core stack is still maintained. No-op unless
// Config.Accounting is set. Setup-time, not per-cycle.
//
//adore:coldpath
func (c *CPU) SetImage(img *program.Image) {
	if !c.cfg.Accounting {
		return
	}
	c.acct.img = img
	c.acct.curLoop = -1
	c.acct.curLo, c.acct.curHi = 0, 0
	c.acct.lastSwitch = c.cycle
	if c.acct.loops == nil {
		c.acct.loops = make(map[int]*[5]uint64)
	}
	c.acct.curStack = c.acct.loopStack(-1)
}

// resetAccounting clears all attribution state for CPU.Reset, keeping the
// attached image (if any) so a re-run splits per loop again from cycle 0.
func (c *CPU) resetAccounting() {
	img := c.acct.img
	c.acct = accounting{curLoop: -1}
	if img != nil {
		c.SetImage(img)
	}
}

// loopStack returns (creating on first use) the counters of one loop ID.
// Called on loop transitions, not per cycle; the allocation happens once
// per distinct loop ID over the whole run.
//
//adore:coldpath
func (a *accounting) loopStack(id int) *[5]uint64 {
	ls := a.loops[id]
	if ls == nil {
		ls = new([5]uint64)
		a.loops[id] = ls
	}
	return ls
}

// Accounting returns the whole-core CPI stack and whether accounting is
// enabled. With accounting on, the stack's Total always equals the cycles
// elapsed so far.
func (c *CPU) Accounting() (CPIStack, bool) {
	if !c.cfg.Accounting {
		return CPIStack{}, false
	}
	s := CPIStack{
		LoadStall: c.acct.stack[acctLoadStall],
		Flush:     c.acct.stack[acctFlush],
		Fetch:     c.acct.stack[acctFetch],
	}
	s.Busy = c.cycle - s.LoadStall - s.Flush - s.Fetch
	return s, true
}

// LoopAccounting returns a copy of the per-loop CPI stacks (key -1 is time
// outside every static loop, including installed traces). Nil without an
// attached image. Read-out path (per profile window), not per-cycle.
//
//adore:coldpath
func (c *CPU) LoopAccounting() map[int]CPIStack {
	if c.acct.loops == nil {
		return nil
	}
	c.flushLoopCycles()
	out := make(map[int]CPIStack, len(c.acct.loops))
	for id, v := range c.acct.loops {
		s := CPIStack{
			LoadStall: v[acctLoadStall],
			Flush:     v[acctFlush],
			Fetch:     v[acctFetch],
		}
		s.Busy = v[acctCycles] - s.LoadStall - s.Flush - s.Fetch
		out[id] = s
	}
	return out
}

// LoopIDs returns the loop IDs with accounted time, sorted — the
// deterministic iteration order event emission needs. Read-out path.
//
//adore:coldpath
func (c *CPU) LoopIDs() []int {
	if c.acct.loops == nil {
		return nil
	}
	ids := make([]int, 0, len(c.acct.loops))
	for id := range c.acct.loops {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// flushLoopCycles credits the cycles elapsed since the last loop switch to
// the current loop, so per-loop residual Busy is exact at read time.
func (c *CPU) flushLoopCycles() {
	if cs := c.acct.curStack; cs != nil {
		cs[acctCycles] += c.cycle - c.acct.lastSwitch
		c.acct.lastSwitch = c.cycle
	}
}

// attribute charges d cycles to an explicit (non-Busy) category, whole-core
// and per-loop.
func (c *CPU) attribute(cat acctCat, d uint64) {
	c.acct.stack[cat] += d
	if cs := c.acct.curStack; cs != nil {
		cs[cat] += d
	}
}

// noteFetch keeps the current-loop cache fresh as fetch moves between
// bundles. Called from the run loop only when accounting is enabled; the
// fast path — still inside the cached range — is inlined there.
func (c *CPU) noteFetch(bundleAddr uint64) {
	if c.acct.img == nil || (bundleAddr >= c.acct.curLo && bundleAddr < c.acct.curHi) {
		return
	}
	c.noteFetchSlow(bundleAddr)
}

// noteFetchSlow settles the outgoing loop's cycle ownership and re-resolves
// the cache for a bundle outside the cached range.
func (c *CPU) noteFetchSlow(bundleAddr uint64) {
	c.flushLoopCycles()
	a := &c.acct
	if l, ok := a.img.LoopAt(bundleAddr); ok {
		a.curLoop = l.ID
		a.curStack = a.loopStack(l.ID)
		a.curLo, a.curHi = l.BodyStart, l.BodyEnd
		return
	}
	a.curLoop = -1
	a.curStack = a.loopStack(-1)
	// Cache the whole loop-free gap around bundleAddr: the nearest body
	// end at or below it and the nearest body start above it. Installed
	// traces run past every static loop, so the trace pool lands in the
	// open-ended final gap and never rescans.
	lo, hi := uint64(0), ^uint64(0)
	for i := range a.img.Loops {
		l := &a.img.Loops[i]
		if l.BodyEnd <= bundleAddr {
			if l.BodyEnd > lo {
				lo = l.BodyEnd
			}
		} else if l.BodyStart > bundleAddr && l.BodyStart < hi {
			hi = l.BodyStart
		}
	}
	a.curLo, a.curHi = lo, hi
}
