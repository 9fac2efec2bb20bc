package cpu

import (
	"repro/internal/isa"
	"repro/internal/program"
)

// Predecoded code image: the fetch fast path of the interpreter.
//
// CodeSpace.Fetch costs a segment search (amortized by a one-entry cache)
// plus two range compares per bundle — measurable at tens of millions of
// simulated bundles per second. The CPU instead keeps one dense
// direct-indexed []isa.Bundle slab per segment, keyed by
// (addr - slab.base) / 16, and resolves the hot fetch with a single
// subtract/shift/bounds-check against the slab executed last. Segments may
// sit gigabytes apart (the trace pool lives at 0x4000_0000), so the image
// is dense per segment, not across the whole address space.
//
// Coherence contract: the slab is a copy, so every mutation of the
// underlying code must be observed. CodeSpace guarantees that all
// mutations flow through Write / WriteBundles / AddSegment, and the CPU
// subscribes a program.ChangeHook at construction, updating the affected
// slab entries in place (or adding a slab when a segment appears, as when
// ADORE allocates its trace pool mid-setup). Patch install, UnpatchAll and
// trace-pool writes therefore cost one bundle copy each, and the fetch
// path never re-validates against the code space.
//
// The copy is also where the interpreter's per-slot work is settled
// once: markNopRuns rewrites every no-effect slot (OpNop, and OpAlloc,
// which this model executes as a nop) into a canonical nop whose Imm
// counts the no-effect slots that directly follow it in its bundle, so a
// plain isa.Nop (Imm 0) is a correct run of one. The bundle templates
// make about four in ten dynamic slots nops; executeBundle retires each
// run with one dispatch and one add. The count lives in a field a nop
// never reads, so the slab stays the size of the code it mirrors.

// codeSlab is the predecoded form of one code segment.
type codeSlab struct {
	base    uint64 // segment base address
	bundles []isa.Bundle
	seg     *program.Segment // identity key for change notifications
}

// predecode is the CPU's code image. The slab executed last is flattened
// into curBase/curBundles so the hot fetch path is one subtract, one
// shift and one bounds check against a local slice — no pointer chase,
// and the bounds check doubles as the index check.
type predecode struct {
	slabs      []*codeSlab
	curBase    uint64
	curBundles []isa.Bundle
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
// registration or patch, never per fetched bundle.
//
//adore:coldpath
func (p *predecode) add(seg *program.Segment) *codeSlab {
	s := &codeSlab{
		base:    seg.Base,
		bundles: append([]isa.Bundle(nil), seg.Bundles...),
		seg:     seg,
	}
	markNopRuns(s.bundles)
	p.slabs = append(p.slabs, s)
	return s
}

// fetch returns the predecoded bundle at bundleAddr (which must be
// 16-byte aligned), or nil if the address is unmapped. Unsigned underflow
// of addresses below the current base lands in the slow path too.
func (c *CPU) fetch(bundleAddr uint64) *isa.Bundle {
	idx := (bundleAddr - c.pre.curBase) >> 4
	if idx < uint64(len(c.pre.curBundles)) {
		return &c.pre.curBundles[idx]
	}
	return c.fetchSlow(bundleAddr)
}

// fetchSlow switches the current slab (branch into / out of the trace
// pool) or reports an unmapped fetch. The slab count is the segment count
// (two in a full ADORE machine), so a linear scan is the right structure.
func (c *CPU) fetchSlow(bundleAddr uint64) *isa.Bundle {
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
// re-copy the written bundles of a known segment, or predecode a newly
// registered one.
func (c *CPU) onCodeChange(seg *program.Segment, first, n int) {
	for _, s := range c.pre.slabs {
		if s.seg == seg {
			copy(s.bundles[first:first+n], seg.Bundles[first:first+n])
			markNopRuns(s.bundles[first : first+n])
			return
		}
	}
	c.pre.add(seg)
}

// markNopRuns rewrites the no-effect slots of bs into canonical nops
// carrying the length of the rest of their run (see the coherence
// contract above). The qualifying predicate is dropped: a no-effect slot
// retires the same whether or not it holds.
func markNopRuns(bs []isa.Bundle) {
	for i := range bs {
		after := int64(-1) // no-effect slots after slot s, -1 when s is not one
		for s := 2; s >= 0; s-- {
			in := &bs[i].Slots[s]
			if in.Op != isa.OpNop && in.Op != isa.OpAlloc {
				after = -1
				continue
			}
			after++
			*in = isa.Inst{Op: isa.OpNop, Imm: after}
		}
	}
}
