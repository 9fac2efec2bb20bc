package cpu

import (
	"repro/internal/isa"
	"repro/internal/program"
)

// Predecoded code image: the executable form the interpreter runs.
//
// CodeSpace.Fetch costs a segment search (amortized by a one-entry cache)
// plus two range compares per bundle — measurable at tens of millions of
// simulated bundles per second. The CPU instead keeps one dense
// direct-indexed []execBundle slab per segment, keyed by
// (addr - slab.base) / 16, and resolves the hot fetch with a single
// subtract/shift/bounds-check against the slab executed last. Segments may
// sit gigabytes apart (the trace pool lives at 0x4000_0000), so the image
// is dense per segment, not across the whole address space.
//
// Coherence contract: the slab is derived from the code, so every
// mutation of the underlying code must be observed. CodeSpace guarantees
// that all mutations flow through Write / WriteBundles / AddSegment, and
// the CPU subscribes a program.ChangeHook at construction, re-deriving
// the affected slab entries in place (or adding a slab when a segment
// appears, as when ADORE allocates its trace pool mid-setup). Patch
// install, UnpatchAll and trace-pool writes therefore cost one bundle
// derivation each, and the fetch path never re-validates against the code
// space.
//
// The derivation is where the interpreter's per-slot work is settled
// once. The bundle templates make about four in ten dynamic slots
// no-effect slots (OpNop, and OpAlloc, which this model executes as a
// nop), and more than half of all bundles open with one. Each record
// carries, for every slot, the length of the no-effect run starting
// there, so executeBundle retires a bundle's leading run on entry and the
// run after each executed slot together with that slot's retire: a nop
// never reaches the dispatch switch unless a PMU sample falls due on it
// (see executeBundle). No-effect slots are still rewritten to isa.Nop, the
// one form that dispatch fallback handles. The record drops the bundle
// template, which execution never reads, so the slab stays the size of
// the code it mirrors.

// execBundle is the executable form of one bundle.
type execBundle struct {
	// nops[s] counts the no-effect slots in the run starting at slot s
	// (0 when slot s is effective; nops[3] is always 0), so the run after
	// slot s is nops[s+1] long.
	nops  [4]uint8
	slots [3]isa.Inst
}

// codeSlab is the predecoded form of one code segment.
type codeSlab struct {
	base    uint64 // segment base address
	bundles []execBundle
	seg     *program.Segment // identity key for change notifications
}

// predecode is the CPU's code image. The slab executed last is flattened
// into curBase/curBundles so the hot fetch path is one subtract, one
// shift and one bounds check against a local slice — no pointer chase,
// and the bounds check doubles as the index check.
type predecode struct {
	slabs      []*codeSlab
	curBase    uint64
	curBundles []execBundle
}

// attachCode builds the image from the code space's current segments and
// subscribes to its changes. Called once from New.
func (c *CPU) attachCode(code *program.CodeSpace) {
	if code == nil {
		return
	}
	for _, seg := range code.Segments() {
		c.pre.add(seg)
	}
	code.OnChange(c.onCodeChange)
}

// add predecodes one segment into a new slab. Runs once per segment
// registration, never per fetched bundle.
//
//adore:coldpath
func (p *predecode) add(seg *program.Segment) *codeSlab {
	s := &codeSlab{
		base:    seg.Base,
		bundles: make([]execBundle, len(seg.Bundles)),
		seg:     seg,
	}
	derive(s.bundles, seg.Bundles)
	p.slabs = append(p.slabs, s)
	return s
}

// fetch returns the predecoded bundle at bundleAddr (which must be
// 16-byte aligned), or nil if the address is unmapped. Unsigned underflow
// of addresses below the current base lands in the slow path too.
func (c *CPU) fetch(bundleAddr uint64) *execBundle {
	idx := (bundleAddr - c.pre.curBase) >> 4
	if idx < uint64(len(c.pre.curBundles)) {
		return &c.pre.curBundles[idx]
	}
	return c.fetchSlow(bundleAddr)
}

// fetchSlow switches the current slab (branch into / out of the trace
// pool) or reports an unmapped fetch. The slab count is the segment count
// (two in a full ADORE machine), so a linear scan is the right structure.
func (c *CPU) fetchSlow(bundleAddr uint64) *execBundle {
	for _, s := range c.pre.slabs {
		idx := (bundleAddr - s.base) >> 4
		if idx < uint64(len(s.bundles)) {
			c.pre.curBase = s.base
			c.pre.curBundles = s.bundles
			return &s.bundles[idx]
		}
	}
	return nil
}

// onCodeChange is the program.ChangeHook keeping the image coherent:
// re-derive the written bundles of a known segment, or predecode a newly
// registered one.
func (c *CPU) onCodeChange(seg *program.Segment, first, n int) {
	for _, s := range c.pre.slabs {
		if s.seg == seg {
			derive(s.bundles[first:first+n], seg.Bundles[first:first+n])
			return
		}
	}
	c.pre.add(seg)
}

// derive writes the executable form of each bundle of src into dst (see
// the coherence contract above). A no-effect slot becomes isa.Nop: its
// qualifying predicate is dropped, as it retires the same whether or not
// the predicate holds.
func derive(dst []execBundle, src []isa.Bundle) {
	for i := range src {
		e := &dst[i]
		run := uint8(0)
		for s := 2; s >= 0; s-- {
			in := src[i].Slots[s]
			if in.Op == isa.OpNop || in.Op == isa.OpAlloc {
				in = isa.Nop
				run++
			} else {
				run = 0
			}
			e.slots[s] = in
			e.nops[s] = run
		}
	}
}
