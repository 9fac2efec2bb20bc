package core

import (
	"sort"

	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/obs"
)

// This file implements the paper's §6 "selective runtime instrumentation"
// future work: when dependence-slice analysis cannot classify a delinquent
// load (address computed through an fp-int conversion, a call, ...), the
// hardware monitors alone cannot reveal the reference pattern. The
// extension patches the loop with one store per iteration that records the
// load's effective address into a profile buffer; the dynopt thread later
// reads the buffer, and if the address deltas show a dominant constant
// stride — Wu's observation that irregular programs hide regular strides —
// it replaces the instrumentation with an ordinary direct prefetch at the
// measured stride.

// instrRecord tracks one live instrumentation experiment.
type instrRecord struct {
	patch    *PatchRecord
	bufBase  uint64
	loadPC   uint64
	addrReg  isa.Reg
	avgLat   float64
	origCopy *Trace  // pre-instrumentation trace, for re-optimization
	phaseCPI float64 // CPI of the phase when instrumented
}

// cloneTrace deep-copies a trace.
func cloneTrace(t *Trace) *Trace {
	cp := *t
	cp.Bundles = append([]isa.Bundle{}, t.Bundles...)
	cp.Orig = append([]uint64{}, t.Orig...)
	return &cp
}

// instrument splices address-recording code for the failed load into the
// trace: a prologue that points a reserved register at the profile buffer
// and a post-increment store of the address register each iteration.
// It returns false when no room or registers remain. The buffer cursor
// takes the LAST reserved register (r30), leaving r27.. for the pattern
// prefetches the optimizer may already have placed in the same trace.
func instrument(t *Trace, load FailedLoad, bufBase uint64) bool {
	ed := &editor{t: t}
	rb := isa.ReservedGRLast // r30 carries the buffer cursor
	ed.prologue([]isa.Inst{
		// The simulated ISA takes full-width immediates on add (the
		// real system would use movl here).
		{Op: isa.OpAddI, R1: rb, Imm: int64(bufBase), R3: 0},
	})
	// Find the load in the (prologue-shifted) trace and place the store
	// after it, where the address register holds this iteration's value.
	b := flatten(t)
	pos := -1
	bundleAddr := load.PC &^ uint64(isa.BundleBytes-1)
	slot := int(load.PC & uint64(isa.BundleBytes-1))
	for bi, a := range t.Orig {
		if a == bundleAddr {
			pos = b.find(bi, slot)
			break
		}
	}
	if pos < 0 {
		return false
	}
	fi := b.insts[pos]
	_, _, ok := ed.place(isa.Inst{Op: isa.OpSt8, R2: load.AddrReg, R3: rb, PostInc: 8},
		fi.bundle, fi.slot+1, false)
	return ok
}

// analyzeStride reads the recorded addresses back out of simulated memory
// and returns the dominant inter-iteration stride, if any. Addresses are
// read until the first zero word (the buffer starts zeroed and recorded
// addresses are never zero).
func analyzeStride(mem *memsys.Memory, bufBase uint64, minSamples int, minShare float64) (stride int64, samples int, ok bool) {
	var prev uint64
	hist := map[int64]int{}
	n := 0
	const maxScan = 1 << 20 // never read more than 8 MiB of buffer
	for i := 0; i < maxScan; i++ {
		v := mem.Read64(bufBase + uint64(i)*8)
		if v == 0 {
			break
		}
		if i > 0 {
			hist[int64(v)-int64(prev)]++
		}
		prev = v
		n++
	}
	if n < minSamples {
		return 0, n, false
	}
	type kv struct {
		d int64
		c int
	}
	var ranked []kv
	for d, c := range hist {
		ranked = append(ranked, kv{d, c})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].c != ranked[j].c {
			return ranked[i].c > ranked[j].c
		}
		return ranked[i].d < ranked[j].d
	})
	top := ranked[0]
	if top.d == 0 || float64(top.c) < minShare*float64(n-1) {
		return 0, n, false
	}
	return top.d, n, true
}

// emitProfiledDirect adds a direct prefetch at an externally measured
// stride for the load at loadPC — used when the stride came from
// instrumentation rather than slice analysis. The prefetch cursor chases
// the address register itself: it is re-anchored from rA every iteration
// (rp = rA + dist), which is correct for any constant-stride address
// stream no matter how the address is computed.
func (o *Optimizer) emitProfiledDirect(t *Trace, loadPC uint64, addrReg isa.Reg, stride int64, avgLat, phaseCPI float64) bool {
	b := flatten(t)
	pos := -1
	bundleAddr := loadPC &^ uint64(isa.BundleBytes-1)
	slot := int(loadPC & uint64(isa.BundleBytes-1))
	for bi, a := range t.Orig {
		if a == bundleAddr {
			pos = b.find(bi, slot)
			break
		}
	}
	if pos < 0 {
		return false
	}
	fi := b.insts[pos]
	isFP := fi.in.Op == isa.OpLdF
	bodyCycles := phaseCPI * float64(b.countFrom(t.LoopHead))
	if bodyCycles < 1 {
		bodyCycles = 1
	}
	dist := o.distanceBytes(avgLat, bodyCycles, stride, isFP)
	if dist == 0 {
		return false
	}
	rp := isa.ReservedGRLast - 1 // r29: kept free alongside the r30 cursor
	ed := &editor{t: t, naive: o.cfg.NaiveSchedule}
	// Re-anchor from the live address register, then prefetch: placed
	// after the load so addrReg holds this iteration's address.
	bi, si, ok := ed.place(isa.Inst{Op: isa.OpAddI, R1: rp, Imm: dist, R3: addrReg},
		fi.bundle, fi.slot+1, false)
	if !ok {
		return false
	}
	_, _, ok = ed.place(isa.Inst{Op: isa.OpLfetch, R3: rp}, bi, si+1, false)
	return ok
}

// addInstrumentation splices recording code for the hottest unclassifiable
// load into the trace (before installation) and returns the pending
// experiment descriptor. The optimizer must have left r29/r30 free
// (RegsUsed <= 2) and the trace must still be a clean candidate.
func (c *Controller) addInstrumentation(t *Trace, res OptimizeResult, info *PhaseInfo) *instrRecord {
	if !c.cfg.StrideProfiling || c.cfg.DisableInsertion {
		return nil
	}
	if len(res.Unknown) == 0 || res.RegsUsed > 2 {
		return nil
	}
	load := res.Unknown[0]
	buf := c.cfg.InstrBufBase + uint64(c.Stats.StrideProfiled)*(8<<20)
	// Keep a pre-instrumentation copy: it carries any pattern prefetches
	// already inserted, and is what gets re-installed once the stride is
	// known (or the experiment fails).
	orig := cloneTrace(t)
	if !instrument(t, load, buf) {
		return nil
	}
	c.Stats.StrideProfiled++
	return &instrRecord{
		bufBase: buf, loadPC: load.PC, addrReg: load.AddrReg,
		avgLat: load.AvgLatency, origCopy: orig, phaseCPI: info.CPI,
	}
}

// pollInstrumentation evaluates live experiments: once enough addresses
// are recorded it removes the instrumentation and, if a dominant stride
// emerged, installs the profiled prefetch. now stamps the events.
func (c *Controller) pollInstrumentation(now uint64) uint64 {
	if len(c.instr) == 0 || c.mem == nil {
		return 0
	}
	var charge uint64
	keep := c.instr[:0]
	for _, ir := range c.instr {
		stride, n, ok := analyzeStride(c.mem, ir.bufBase, c.cfg.InstrMinSamples, c.cfg.InstrMinShare)
		if n < c.cfg.InstrMinSamples {
			keep = append(keep, ir) // not enough data yet
			continue
		}
		// Experiment over: remove the instrumented trace.
		if err := undoPatch(c.code, ir.patch); err != nil {
			continue
		}
		charge += c.cfg.PatchCharge
		t := cloneTrace(ir.origCopy)
		var added uint64 // prefetches this reinstall adds to the clean copy
		if ok {
			// Add the discovered-stride prefetch to the clean copy.
			if c.opt.emitProfiledDirect(t, ir.loadPC, ir.addrReg, stride, ir.avgLat, ir.phaseCPI) {
				c.Stats.StrideFound++
				added = 1
			} else {
				c.Stats.StrideProfileFailed++
			}
		} else {
			c.Stats.StrideProfileFailed++
		}
		// The profiled prefetch was spliced at runtime like any other
		// patch: verify it against the clean copy before reinstalling,
		// and fall back to the clean copy itself when it fails.
		if !c.verifyTrace(now, t, ir.origCopy) {
			t = cloneTrace(ir.origCopy)
			added = 0
		}
		// Either way, reinstall the un-instrumented trace (it may carry
		// the pattern prefetches found by slice analysis).
		if t.InstCount() <= ir.origCopy.InstCount() && !ok && c.countTracePrefetches(ir.origCopy) == 0 {
			// Nothing useful in the clean copy: leave the original
			// code unpatched.
			continue
		}
		addr, err := c.pool.Install(t)
		if err != nil {
			continue
		}
		rec, err := applyPatch(c.code, t.Start, addr, ir.phaseCPI)
		if err != nil {
			continue
		}
		rec.TraceEnd = c.pool.seg.Base + uint64(c.pool.next)*isa.BundleBytes
		c.patches = append(c.patches, rec)
		c.emit(obs.Event{
			Cycle: now, Kind: obs.KindPatchInstalled, Loop: c.loopOf(rec.Entry),
			PC: rec.Entry, A: rec.TraceAddr, B: rec.TraceEnd, C: added,
		})
		charge += c.cfg.PatchCharge
	}
	c.instr = keep
	return charge
}

// countTracePrefetches counts lfetch instructions in a trace.
func (c *Controller) countTracePrefetches(t *Trace) int {
	n := 0
	for _, bd := range t.Bundles {
		for _, in := range bd.Slots {
			if in.Op == isa.OpLfetch {
				n++
			}
		}
	}
	return n
}
