package cpu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/pmu"
	"repro/internal/program"
)

// Cycle-exact checks of the sample gate and of nop-run retirement. The
// machines here have no memory hierarchy, so nothing but issue width,
// branch bubbles and sample charges moves the clock, and every expected
// count below is worked out by hand in the comments.

var (
	nop3 = isa.Bundle{Slots: [3]isa.Inst{isa.Nop, isa.Nop, isa.Nop}}
	halt = isa.Bundle{Slots: [3]isa.Inst{{Op: isa.OpHalt}, isa.Nop, isa.Nop}}
)

// bareMachine runs bundles at address 0 with no memory hierarchy.
func bareMachine(t *testing.T, bundles []isa.Bundle, p *pmu.PMU) (*CPU, *program.CodeSpace) {
	t.Helper()
	cs := program.NewCodeSpace()
	if err := cs.AddSegment(&program.Segment{Name: "main", Bundles: bundles}); err != nil {
		t.Fatal(err)
	}
	return New(DefaultConfig(), cs, memsys.NewMemory(), nil, p), cs
}

// exactPMU samples every interval cycles with no jitter.
func exactPMU(interval uint64, ssb int, handlerCycles uint64) *pmu.PMU {
	return pmu.New(pmu.Config{SampleInterval: interval, IntervalJitter: 1, SSBSize: ssb, HandlerCyclesPerSample: handlerCycles})
}

type sampleRec struct{ pc, cycles, retired uint64 }

func collect(p *pmu.PMU) *[]sampleRec {
	var got []sampleRec
	p.SetHandler(func(s []pmu.Sample) {
		for _, x := range s {
			got = append(got, sampleRec{x.PC, x.Cycles, x.Retired})
		}
	})
	return &got
}

func checkSamples(t *testing.T, got, want []sampleRec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("samples = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestSampleLandsOnNopAfterOverflowCharge: 26 all-nop bundles, then halt.
// Two bundles issue per cycle, so bundle k starts at cycle k/2 until a
// charge moves the clock. Samples fall due every 4 cycles; every second
// sample overflows the 2-entry SSB and charges 2×5 = 10 cycles, more
// than the interval, so the very next retire — a nop in the same run —
// takes the next sample.
//
//	bundle 8,  slot 0, cycle 4:  sample, retired 8·3+1 = 25
//	bundle 16, slot 0, cycle 8:  sample, retired 49; overflow, clock -> 18
//	bundle 16, slot 1, cycle 18: sample (due at 12), retired 50
//	bundle 25, slot 0, cycle 22: sample, retired 76; overflow, clock -> 32
//	bundle 25, slot 1, cycle 32: sample (due at 26), retired 77
//	halt (bundle 26) at cycle 32, the 79th instruction.
func TestSampleLandsOnNopAfterOverflowCharge(t *testing.T) {
	code := make([]isa.Bundle, 27)
	for i := range code[:26] {
		code[i] = nop3
	}
	code[26] = halt
	p := exactPMU(4, 2, 5)
	got := collect(p)
	c, _ := bareMachine(t, code, p)
	p.Start(0)
	st := run(t, c)
	p.Stop()

	b := func(i, slot uint64) uint64 { return i*isa.BundleBytes + slot }
	checkSamples(t, *got, []sampleRec{
		{b(8, 0), 4, 25},
		{b(16, 0), 8, 49},
		{b(16, 1), 18, 50},
		{b(25, 0), 22, 76},
		{b(25, 1), 32, 77},
	})
	if st.Retired != 79 || st.Cycles != 32 || st.SampleCharges != 20 {
		t.Errorf("retired %d cycles %d charges %d, want 79 32 20", st.Retired, st.Cycles, st.SampleCharges)
	}
	if p.Retired != st.Retired {
		t.Errorf("PMU.Retired = %d after the run, want %d", p.Retired, st.Retired)
	}
}

// TestBranchIntoNopRun enters a nop run at slot 1 and at slot 2: only the
// slots from the target on retire, and a sample due on arrival lands on
// the target slot itself.
//
//	bundle 0: nop nop br->target   cycle 0; retired 3; the taken-branch
//	                               bubble moves the clock to 1
//	bundle 1: movl r5=99 nop halt  skipped
//	bundle 2: movl r6=1 nop nop    entered at the target slot, cycle 1
//	bundle 3: halt                 cycle 1
func TestBranchIntoNopRun(t *testing.T) {
	for _, slot := range []uint64{1, 2} {
		target := 2*isa.BundleBytes + slot
		code := []isa.Bundle{
			{Slots: [3]isa.Inst{isa.Nop, isa.Nop, {Op: isa.OpBr, Target: target}}},
			{Slots: [3]isa.Inst{{Op: isa.OpMovI, R1: 5, Imm: 99}, isa.Nop, {Op: isa.OpHalt}}},
			{Slots: [3]isa.Inst{{Op: isa.OpMovI, R1: 6, Imm: 1}, isa.Nop, isa.Nop}},
			halt,
		}
		// The first sample falls due at cycle 1, on arrival at the target.
		p := exactPMU(1, 64, 0)
		got := collect(p)
		c, _ := bareMachine(t, code, p)
		p.Start(0)
		st := run(t, c)
		p.Stop()

		wantRetired := 3 + (3 - slot) + 1
		if st.Retired != wantRetired || st.Cycles != 1 {
			t.Errorf("slot %d: retired %d cycles %d, want %d 1", slot, st.Retired, st.Cycles, wantRetired)
		}
		if c.GR[5] != 0 || c.GR[6] != 0 {
			t.Errorf("slot %d: skipped slots executed (r5=%d r6=%d)", slot, c.GR[5], c.GR[6])
		}
		checkSamples(t, *got, []sampleRec{{target, 1, 4}})
	}
}

// TestSampleDueOnLeadingRun: 18 bundles that open with a run of two nops
// before a movl, then halt. A sample due on entry must land on slot 0,
// not be swallowed by the run's one-add retire. Samples fall due every 4
// cycles from cycle 4; each one overflows the 1-entry SSB and charges 3
// cycles, short of the interval, so the next one falls due on a later
// bundle's entry. Until a charge moves the clock, bundle k starts at
// cycle k/2; after one, the next bundle opens a fresh cycle.
//
//	bundle 8,  cycle 4:  sample at slot 0, retired 8·3+1 = 25; clock -> 7
//	bundles 9-10 at cycle 7, bundle 11 at cycle 8
//	bundle 11, cycle 8:  sample at slot 0, retired 34; clock -> 11
//	bundles 12-13 at 11, bundle 14 at 12: sample, retired 43; clock -> 15
//	bundles 15-16 at 15, bundle 17 at 16: sample, retired 52; clock -> 19
//	halt (bundle 18) at cycle 19, the 55th instruction; sample next due 20.
func TestSampleDueOnLeadingRun(t *testing.T) {
	lead := isa.Bundle{Slots: [3]isa.Inst{isa.Nop, isa.Nop, {Op: isa.OpMovI, R1: 5, Imm: 1}}}
	code := make([]isa.Bundle, 19)
	for i := range code[:18] {
		code[i] = lead
	}
	code[18] = halt
	p := exactPMU(4, 1, 3)
	got := collect(p)
	c, _ := bareMachine(t, code, p)
	p.Start(0)
	st := run(t, c)
	p.Stop()

	b := func(i, slot uint64) uint64 { return i*isa.BundleBytes + slot }
	checkSamples(t, *got, []sampleRec{
		{b(8, 0), 4, 25},
		{b(11, 0), 8, 34},
		{b(14, 0), 12, 43},
		{b(17, 0), 16, 52},
	})
	if st.Retired != 55 || st.Cycles != 19 || st.SampleCharges != 12 || c.GR[5] != 1 {
		t.Errorf("retired %d cycles %d charges %d r5 %d, want 55 19 12 1", st.Retired, st.Cycles, st.SampleCharges, c.GR[5])
	}
}

// TestSampleDueOnTrailingRun: 26 bundles of a movl followed by two nops,
// then halt, on TestSampleLandsOnNopAfterOverflowCharge's schedule. The
// movl's retire takes the sample due on it, and when that overflows the
// SSB the 10-cycle charge makes the next sample due at once: it must land
// on the first nop of the run after the movl, which the movl's retire
// would otherwise have retired in the same add.
//
//	bundle 8,  cycle 4:  sample at the movl, retired 25
//	bundle 16, cycle 8:  sample at the movl, retired 49; overflow, clock -> 18
//	bundle 16, slot 1, cycle 18: sample (due at 12), retired 50
//	bundle 25, cycle 22: sample at the movl, retired 76; overflow, clock -> 32
//	bundle 25, slot 1, cycle 32: sample (due at 26), retired 77
//	halt (bundle 26) at cycle 32, the 79th instruction.
func TestSampleDueOnTrailingRun(t *testing.T) {
	trail := isa.Bundle{Slots: [3]isa.Inst{{Op: isa.OpMovI, R1: 5, Imm: 1}, isa.Nop, isa.Nop}}
	code := make([]isa.Bundle, 27)
	for i := range code[:26] {
		code[i] = trail
	}
	code[26] = halt
	p := exactPMU(4, 2, 5)
	got := collect(p)
	c, _ := bareMachine(t, code, p)
	p.Start(0)
	st := run(t, c)
	p.Stop()

	b := func(i, slot uint64) uint64 { return i*isa.BundleBytes + slot }
	checkSamples(t, *got, []sampleRec{
		{b(8, 0), 4, 25},
		{b(16, 0), 8, 49},
		{b(16, 1), 18, 50},
		{b(25, 0), 22, 76},
		{b(25, 1), 32, 77},
	})
	if st.Retired != 79 || st.Cycles != 32 || st.SampleCharges != 20 || c.GR[5] != 1 {
		t.Errorf("retired %d cycles %d charges %d r5 %d, want 79 32 20 1", st.Retired, st.Cycles, st.SampleCharges, c.GR[5])
	}
}

// TestSampleDueAfterMispredict: a not-taken backward branch in slot 0
// retires before its misprediction penalty moves the clock, so a sample
// falling due in the penalty lands on the first nop of the run after it.
//
//	bundle 0: nop nop nop          cycle 0; retired 3
//	bundle 1: br.cond(p1) ->0 nop nop
//	                               cycle 0; the branch retires (4th), is
//	                               not taken and mispredicts: clock -> 6;
//	                               slot 1 takes the sample due since
//	                               cycle 1 (retired 5), next due 7
//	bundle 2: halt                 cycle 6, the 7th instruction
func TestSampleDueAfterMispredict(t *testing.T) {
	code := []isa.Bundle{
		nop3,
		{Slots: [3]isa.Inst{{Op: isa.OpBrCond, QP: 1, Target: 0}, isa.Nop, isa.Nop}},
		halt,
	}
	p := exactPMU(1, 64, 0)
	got := collect(p)
	c, _ := bareMachine(t, code, p)
	p.Start(0)
	st := run(t, c)
	p.Stop()

	checkSamples(t, *got, []sampleRec{{isa.BundleBytes + 1, 6, 5}})
	if st.Retired != 7 || st.Cycles != 6 || st.Mispredicts != 1 {
		t.Errorf("retired %d cycles %d mispredicts %d, want 7 6 1", st.Retired, st.Cycles, st.Mispredicts)
	}
}

// TestCodeWriteRederivesNopRuns rewrites an all-nop bundle into
// alloc/lfetch/nop through CodeSpace.Write, as a prefetch patch does, and
// back. The image must re-derive the bundle's record each time: the alloc
// becomes a nop (an underived one is an unimplemented op), the lfetch
// executes, and the restored bundle is one run of three again.
func TestCodeWriteRederivesNopRuns(t *testing.T) {
	c, cs := bareMachine(t, []isa.Bundle{nop3, halt}, nil)
	check := func(what string, wantPrefetches uint64, wantRuns [4]uint8, wantOps [3]isa.Op) {
		t.Helper()
		c.Reset()
		c.SetPC(0)
		if st := run(t, c); st.Retired != 4 || st.Prefetches != wantPrefetches {
			t.Errorf("%s: retired %d prefetches %d, want 4 %d", what, st.Retired, st.Prefetches, wantPrefetches)
		}
		// nops[s] counts the no-effect slots in the run starting at slot s:
		// the leading run is nops[0], the run after slot s is nops[s+1].
		e := c.fetch(0)
		if e.nops != wantRuns {
			t.Errorf("%s: image runs %v, want %v", what, e.nops, wantRuns)
		}
		for s, in := range e.slots {
			if in.Op != wantOps[s] {
				t.Errorf("%s: slot %d is %s, want %s", what, s, in.Op, wantOps[s])
			}
		}
	}
	allNops := [3]isa.Op{isa.OpNop, isa.OpNop, isa.OpNop}
	check("all-nop bundle", 0, [4]uint8{3, 2, 1, 0}, allNops)

	patched := nop3
	patched.Slots[0] = isa.Inst{Op: isa.OpAlloc}
	patched.Slots[1] = isa.Inst{Op: isa.OpLfetch, R3: 4}
	if err := cs.Write(0, patched); err != nil {
		t.Fatal(err)
	}
	check("patched bundle", 1, [4]uint8{1, 0, 1, 0}, [3]isa.Op{isa.OpNop, isa.OpLfetch, isa.OpNop})

	if err := cs.Write(0, nop3); err != nil {
		t.Fatal(err)
	}
	check("unpatched bundle", 0, [4]uint8{3, 2, 1, 0}, allNops)
}

// TestSampleRetiredMatchesStats runs a loop over memory on a full machine
// with a one-entry SSB, so the handler sees each sample at the retire
// that took it: its Retired and Cycles must be the CPU's at that moment.
func TestSampleRetiredMatchesStats(t *testing.T) {
	p := pmu.New(pmu.Config{SampleInterval: 50, SSBSize: 1, DearLatencyMin: 8, HandlerCyclesPerSample: 3})
	c, _ := buildMachine(t, sumLoop(0x300000, 3000), p)
	var n int
	p.SetHandler(func(s []pmu.Sample) {
		n++
		if s[0].Retired != c.Stats.Retired || s[0].Cycles != c.Now() {
			t.Fatalf("sample %d: retired %d cycles %d, CPU at %d %d",
				s[0].Index, s[0].Retired, s[0].Cycles, c.Stats.Retired, c.Now())
		}
	})
	p.Start(0)
	st := run(t, c)
	if n < 100 {
		t.Fatalf("only %d samples", n)
	}
	if p.Retired != st.Retired {
		t.Errorf("PMU.Retired = %d after the run, want %d", p.Retired, st.Retired)
	}
}
