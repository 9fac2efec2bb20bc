package verify_test

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/verify"
	"repro/internal/workloads"
)

// rulesOf collects the distinct rules of a finding list.
func rulesOf(fs []verify.Finding) map[verify.Rule]int {
	m := make(map[verify.Rule]int)
	for _, f := range fs {
		m[f.Rule]++
	}
	return m
}

// wantExactly asserts the findings consist of at least one finding, all
// carrying the single expected rule — the "caught by exactly the expected
// rule" contract of the negative fixtures.
func wantExactly(t *testing.T, fs []verify.Finding, rule verify.Rule) {
	t.Helper()
	if len(fs) == 0 {
		t.Fatalf("no findings, want rule %q", rule)
	}
	for _, f := range fs {
		if f.Rule != rule {
			t.Fatalf("unexpected finding %v, want only rule %q (all: %v)", f, rule, fs)
		}
	}
}

// ---- template legality ----

func TestCheckBundleUnknownTemplate(t *testing.T) {
	fs := verify.CheckBundle(0x1000, isa.Bundle{Tmpl: isa.Template(250)})
	wantExactly(t, fs, verify.RuleTemplate)
}

func TestCheckBundleUnitMismatch(t *testing.T) {
	// An ld8 (M unit) in the F slot of an MFI bundle.
	b := isa.Bundle{Tmpl: isa.TmplMFI, Slots: [3]isa.Inst{
		isa.Nop, {Op: isa.OpLd8, R1: 4, R3: 5}, isa.Nop,
	}}
	wantExactly(t, verify.CheckBundle(0x1000, b), verify.RuleTemplate)
}

func TestCheckBundleMLXPairing(t *testing.T) {
	// movl outside an MLX bundle.
	b := isa.Bundle{Tmpl: isa.TmplMII, Slots: [3]isa.Inst{
		isa.Nop, {Op: isa.OpMovI, R1: 4, Imm: 1 << 40}, isa.Nop,
	}}
	wantExactly(t, verify.CheckBundle(0x1000, b), verify.RuleMLX)

	// The X half of an MLX pair holding a real instruction.
	b = isa.Bundle{Tmpl: isa.TmplMLX, Slots: [3]isa.Inst{
		isa.Nop, {Op: isa.OpMovI, R1: 4, Imm: 1}, {Op: isa.OpAddI, R1: 5, Imm: 1, R3: 5},
	}}
	wantExactly(t, verify.CheckBundle(0x1000, b), verify.RuleMLX)
}

func TestCheckBundleValidOnesAreClean(t *testing.T) {
	cases := []isa.Bundle{
		isa.NopBundle(),
		isa.BranchBundle(0x2000),
		{Tmpl: isa.TmplMLX, Slots: [3]isa.Inst{
			{Op: isa.OpLd8, R1: 4, R3: 5}, {Op: isa.OpMovI, R1: 6, Imm: 1 << 40}, isa.Nop,
		}},
		{Tmpl: isa.TmplMMI, Slots: [3]isa.Inst{
			{Op: isa.OpLd8, R1: 4, R3: 5}, {Op: isa.OpSt8, R2: 4, R3: 6}, {Op: isa.OpShl, R1: 7, R2: 4, Imm: 3},
		}},
	}
	for i, b := range cases {
		if fs := verify.CheckBundle(0x1000, b); len(fs) != 0 {
			t.Errorf("case %d: unexpected findings %v", i, fs)
		}
	}
}

// ---- intra-bundle dataflow ----

func TestPredicateWAWInBundle(t *testing.T) {
	seg := &program.Segment{Base: 0x1000, Bundles: []isa.Bundle{
		{Tmpl: isa.TmplMII, Slots: [3]isa.Inst{
			{Op: isa.OpCmpI, P1: 1, P2: 2, Imm: 0, R3: 4},
			{Op: isa.OpCmpI, P1: 1, P2: 3, Imm: 1, R3: 5}, // rewrites p1
			isa.Nop,
		}},
	}}
	wantExactly(t, verify.CheckSegment(seg, verify.Options{}), verify.RulePredWAW)

	seg.Bundles[0] = isa.Bundle{Tmpl: isa.TmplMII, Slots: [3]isa.Inst{
		{Op: isa.OpCmpI, P1: 7, P2: 7, Imm: 0, R3: 4}, isa.Nop, isa.Nop, // p1 == p2
	}}
	wantExactly(t, verify.CheckSegment(seg, verify.Options{}), verify.RulePredWAW)
}

func TestRAWInGroupIsAdvisoryOnly(t *testing.T) {
	seg := &program.Segment{Base: 0x1000, Bundles: []isa.Bundle{
		{Tmpl: isa.TmplMMI, Slots: [3]isa.Inst{
			{Op: isa.OpLd8, R1: 4, R3: 5},
			{Op: isa.OpSt8, R2: 4, R3: 6}, // reads r4 written one slot earlier
			isa.Nop,
		}},
	}}
	if fs := verify.CheckSegment(seg, verify.Options{}); len(fs) != 0 {
		t.Fatalf("RAW reported without Advisory: %v", fs)
	}
	fs := verify.CheckSegment(seg, verify.Options{Advisory: true})
	wantExactly(t, fs, verify.RuleRAWGroup)
	if fs[0].Sev != verify.SevAdvisory {
		t.Fatalf("RAW severity = %v, want advisory", fs[0].Sev)
	}
	if errs := verify.Errors(fs); len(errs) != 0 {
		t.Fatalf("Errors() kept advisory findings: %v", errs)
	}
}

// ---- branch targets and reserved registers ----

func TestSegmentBranchTargets(t *testing.T) {
	seg := &program.Segment{Base: 0x1000, Bundles: []isa.Bundle{
		isa.BranchBundle(0x9000), // outside the segment
	}}
	wantExactly(t, verify.CheckSegment(seg, verify.Options{}), verify.RuleBranchTarget)

	seg.Bundles[0] = isa.BranchBundle(0x1008) // not bundle-aligned
	wantExactly(t, verify.CheckSegment(seg, verify.Options{}), verify.RuleBranchTarget)

	seg.Bundles[0] = isa.BranchBundle(0x1000) // self-loop: fine
	if fs := verify.CheckSegment(seg, verify.Options{}); len(fs) != 0 {
		t.Fatalf("unexpected findings: %v", fs)
	}
}

func TestReservedUse(t *testing.T) {
	seg := &program.Segment{Base: 0x1000, Bundles: []isa.Bundle{
		{Tmpl: isa.TmplMII, Slots: [3]isa.Inst{
			{Op: isa.OpAddI, R1: isa.ReservedGRFirst, Imm: 1, R3: 4}, isa.Nop, isa.Nop,
		}},
	}}
	if fs := verify.CheckSegment(seg, verify.Options{}); len(fs) != 0 {
		t.Fatalf("reserved use flagged without the option: %v", fs)
	}
	wantExactly(t, verify.CheckSegment(seg, verify.Options{ReservedRegsUnused: true}), verify.RuleReservedUse)
}

// ---- trace fixtures ----

// loopView is a minimal pristine loop trace: a strided load plus counter
// decrement, then a compare-and-branch latch. r14 (address) and r10
// (counter) are live-in.
func loopView() verify.TraceView {
	return verify.TraceView{
		Start:  0x1000,
		IsLoop: true, LoopHead: 0, BackEdge: 1,
		Orig: []uint64{0x1000, 0x1010},
		Bundles: []isa.Bundle{
			{Tmpl: isa.TmplMMI, Slots: [3]isa.Inst{
				{Op: isa.OpLd8, R1: 20, R3: 14, PostInc: 8},
				isa.Nop, // free M slot
				{Op: isa.OpAddI, R1: 10, Imm: -1, R3: 10},
			}},
			{Tmpl: isa.TmplMIB, Slots: [3]isa.Inst{
				{Op: isa.OpCmpI, Rel: isa.CmpLt, P1: 1, P2: 2, Imm: 0, R3: 10},
				isa.Nop, // free I slot
				{Op: isa.OpBrCond, QP: 1, Target: 0x1000},
			}},
		},
	}
}

// withPrologue prepends one inserted bundle (no original address) holding
// up to three instructions and shifts the loop indices, mimicking
// editor.prologue.
func withPrologue(v verify.TraceView, insts ...isa.Inst) verify.TraceView {
	units := make([]isa.Unit, len(insts))
	for i, in := range insts {
		units[i] = isa.UnitOf(in.Op)
	}
	tmpl, slots, ok := isa.AssignSlots(units)
	if !ok {
		panic("withPrologue: unpackable")
	}
	var bd isa.Bundle
	bd.Tmpl = tmpl
	for i, in := range insts {
		bd.Slots[slots[i]] = in
	}
	out := v
	out.Bundles = append([]isa.Bundle{bd}, v.Bundles...)
	out.Orig = append([]uint64{0}, v.Orig...)
	out.LoopHead++
	out.BackEdge++
	return out
}

func TestTraceLegitimateDirectPrefetch(t *testing.T) {
	base := loopView()
	// Fig. 6A shape: prologue cursor init, self-advancing lfetch in the
	// free M slot of the loop body. Distance 128 = 16 × stride 8.
	cur := withPrologue(loopView(), isa.Inst{Op: isa.OpAddI, R1: 27, Imm: 128, R3: 14})
	cur.Bundles[1].Slots[1] = isa.Inst{Op: isa.OpLfetch, R3: 27, PostInc: 8}
	if fs := verify.CheckTrace(cur, &base, verify.Options{}); len(fs) != 0 {
		t.Fatalf("legitimate prefetch flagged: %v", fs)
	}
}

// Negative fixture 1: injected code clobbers a register live in the
// original trace (the loop counter r10).
func TestFixtureClobberedLiveRegister(t *testing.T) {
	base := loopView()
	cur := loopView()
	cur.Bundles[1].Slots[1] = isa.Inst{Op: isa.OpAddI, R1: 10, Imm: 8, R3: 10}
	wantExactly(t, verify.CheckTrace(cur, &base, verify.Options{}), verify.RuleClobber)
}

// Negative fixture 2: a branch sitting in an M slot.
func TestFixtureBranchInMSlot(t *testing.T) {
	b := isa.Bundle{Tmpl: isa.TmplMMI, Slots: [3]isa.Inst{
		{Op: isa.OpBr, Target: 0x1000}, isa.Nop, isa.Nop,
	}}
	wantExactly(t, verify.CheckBundle(0x1000, b), verify.RuleBranchSlot)

	// The same bundle inside a (non-loop) trace is caught identically.
	cur := verify.TraceView{Start: 0x1000, Orig: []uint64{0x1000}, Bundles: []isa.Bundle{b}}
	wantExactly(t, verify.CheckTrace(cur, nil, verify.Options{}), verify.RuleBranchSlot)
}

// Negative fixture 3: an injected lfetch whose address never advances in
// the loop — a zero effective stride prefetching the same line forever.
func TestFixtureZeroStrideLfetch(t *testing.T) {
	base := loopView()
	cur := withPrologue(loopView(), isa.Inst{Op: isa.OpAddI, R1: 27, Imm: 128, R3: 14})
	cur.Bundles[1].Slots[1] = isa.Inst{Op: isa.OpLfetch, R3: 27} // no post-increment
	wantExactly(t, verify.CheckTrace(cur, &base, verify.Options{}), verify.RulePrefetchDist)
}

func TestTraceSlotReuse(t *testing.T) {
	base := loopView()
	cur := loopView()
	// Overwrite the original counter decrement with a prefetch.
	cur.Bundles[0].Slots[2] = isa.Inst{Op: isa.OpAddI, R1: 27, Imm: 64, R3: 14}
	fs := verify.CheckTrace(cur, &base, verify.Options{})
	if rulesOf(fs)[verify.RuleSlotReuse] == 0 {
		t.Fatalf("overwritten original instruction not flagged: %v", fs)
	}
}

func TestTraceUseBeforeDef(t *testing.T) {
	base := loopView()
	cur := loopView()
	// lfetch through r28 which nothing ever defines.
	cur.Bundles[0].Slots[1] = isa.Inst{Op: isa.OpLfetch, R3: 28, PostInc: 8}
	fs := verify.CheckTrace(cur, &base, verify.Options{})
	if rulesOf(fs)[verify.RuleUseBeforeDef] == 0 {
		t.Fatalf("use of undefined reserved register not flagged: %v", fs)
	}
}

func TestTraceInjectedOpRules(t *testing.T) {
	mk := func(in isa.Inst) []verify.Finding {
		base := loopView()
		cur := loopView()
		cur.Bundles[0].Slots[1] = in
		return verify.CheckTrace(cur, &base, verify.Options{})
	}
	// A non-speculative injected load can fault on a garbage address.
	fs := mk(isa.Inst{Op: isa.OpLd8, R1: 27, R3: 14})
	if rulesOf(fs)[verify.RuleInjectedOp] == 0 {
		t.Fatalf("non-speculative injected load not flagged: %v", fs)
	}
	// The speculative form is allowed.
	if fs := mk(isa.Inst{Op: isa.OpLdS, R1: 27, R3: 14}); len(fs) != 0 {
		t.Fatalf("ld.s flagged: %v", fs)
	}
	// A store through a non-reserved base writes program memory.
	fs = mk(isa.Inst{Op: isa.OpSt8, R2: 20, R3: 14})
	if rulesOf(fs)[verify.RuleInjectedOp] == 0 {
		t.Fatalf("injected store through program register not flagged: %v", fs)
	}
	// A post-increment on a non-reserved base mutates program state.
	fs = mk(isa.Inst{Op: isa.OpLfetch, R3: 14, PostInc: 8})
	if rulesOf(fs)[verify.RulePostInc] == 0 {
		t.Fatalf("post-increment side effect not flagged: %v", fs)
	}
}

func TestTraceInjectedBranch(t *testing.T) {
	base := loopView()
	cur := loopView()
	cur.Bundles[1].Slots[1] = isa.Inst{Op: isa.OpShl, R1: 27, R2: 27, Imm: 1} // benign filler
	cur.Bundles[1].Slots[1] = isa.Inst{Op: isa.OpBrCond, QP: 1, Target: 0x1000}
	fs := verify.CheckTrace(cur, &base, verify.Options{})
	found := rulesOf(fs)
	if found[verify.RuleInjectedOp] == 0 && found[verify.RuleBranchSlot] == 0 {
		t.Fatalf("injected branch not flagged: %v", fs)
	}
}

func TestTracePrefetchDistanceRules(t *testing.T) {
	mk := func(dist, stride int64) []verify.Finding {
		base := loopView()
		cur := withPrologue(loopView(), isa.Inst{Op: isa.OpAddI, R1: 27, Imm: dist, R3: 14})
		cur.Bundles[1].Slots[1] = isa.Inst{Op: isa.OpLfetch, R3: 27, PostInc: stride}
		return verify.CheckTrace(cur, &base, verify.Options{})
	}
	if fs := mk(0, 8); rulesOf(fs)[verify.RulePrefetchDist] == 0 {
		t.Errorf("zero distance not flagged: %v", fs)
	}
	if fs := mk(-128, 8); rulesOf(fs)[verify.RulePrefetchDist] == 0 {
		t.Errorf("sign mismatch not flagged: %v", fs)
	}
	if fs := mk(36, 24); rulesOf(fs)[verify.RulePrefetchDist] == 0 {
		t.Errorf("non-multiple distance not flagged: %v", fs)
	}
	if fs := mk(48, 24); len(fs) != 0 {
		t.Errorf("stride multiple flagged: %v", fs)
	}
	if fs := mk(128, 24); len(fs) != 0 {
		t.Errorf("line-aligned distance flagged: %v", fs) // §3.3 alignment
	}
	if fs := mk(-64, -8); len(fs) != 0 {
		t.Errorf("negative-stride prefetch flagged: %v", fs)
	}
}

func TestTraceBackEdgeIntegrity(t *testing.T) {
	cur := loopView()
	cur.Bundles[1].Slots[2].Target = 0x5000 // back edge no longer targets Start
	fs := verify.CheckTrace(cur, nil, verify.Options{})
	if rulesOf(fs)[verify.RuleBranchTarget] == 0 {
		t.Fatalf("broken back edge not flagged: %v", fs)
	}

	cur = loopView()
	cur.BackEdge = 7 // out of range
	fs = verify.CheckTrace(cur, nil, verify.Options{})
	if rulesOf(fs)[verify.RuleBranchTarget] == 0 {
		t.Fatalf("out-of-range loop indices not flagged: %v", fs)
	}
}

// Negative fixture 4 (liveness-only): the injected write lands *between*
// the original definition of r27 and its original use, so r27 is live at
// the exact patch point. The old linear scan concluded "defined before
// read, hence dead" from bundle order alone and accepted this corruption;
// per-point liveness over the CFG rejects it.
func TestFixturePerPointLiveClobber(t *testing.T) {
	mkView := func() verify.TraceView {
		return verify.TraceView{
			Start:  0x1000,
			IsLoop: true, LoopHead: 0, BackEdge: 2,
			Orig: []uint64{0x1000, 0x1010, 0x1020},
			Bundles: []isa.Bundle{
				{Tmpl: isa.TmplMMI, Slots: [3]isa.Inst{
					{Op: isa.OpAddI, R1: 27, Imm: 0, R3: 14}, // r27 = r14 (no-reserve build)
					isa.Nop,                                  // free M slot between def and use
					{Op: isa.OpAddI, R1: 10, Imm: -1, R3: 10},
				}},
				{Tmpl: isa.TmplMMI, Slots: [3]isa.Inst{
					{Op: isa.OpLd8, R1: 20, R3: 27}, // ...then loads through r27
					isa.Nop, isa.Nop,
				}},
				{Tmpl: isa.TmplMIB, Slots: [3]isa.Inst{
					{Op: isa.OpCmpI, Rel: isa.CmpLt, P1: 1, P2: 2, Imm: 0, R3: 10},
					isa.Nop,
					{Op: isa.OpBrCond, QP: 1, Target: 0x1000},
				}},
			},
		}
	}
	base := mkView()
	cur := mkView()
	// Re-anchoring r27 here silently moves the original load's address.
	cur.Bundles[0].Slots[1] = isa.Inst{Op: isa.OpAddI, R1: 27, Imm: 64, R3: 14}
	wantExactly(t, verify.CheckTrace(cur, &base, verify.Options{}), verify.RuleClobber)
}

// Negative fixture 5 (definite-assignment-only): the cursor init is
// predicated on p1 but the lfetch that reads the cursor is unpredicated,
// so on the p1-false path it prefetches through a register nothing
// assigned. The old scan treated any textually-earlier definition as
// covering, predicate or not, and accepted it.
func TestFixturePredicatedDefUseBeforeDef(t *testing.T) {
	base := loopView()
	cur := withPrologue(loopView(), isa.Inst{Op: isa.OpAddI, QP: 1, R1: 27, Imm: 128, R3: 14})
	cur.Bundles[1].Slots[1] = isa.Inst{Op: isa.OpLfetch, R3: 27, PostInc: 8}
	wantExactly(t, verify.CheckTrace(cur, &base, verify.Options{}), verify.RuleUseBeforeDef)
}

// Cross-bundle RAW is invisible to the per-bundle scan; the
// reaching-definitions solver reports it (advisory, adjacent bundles of
// one block only).
func TestRAWCrossBundleAdvisory(t *testing.T) {
	seg := &program.Segment{Base: 0x1000, Bundles: []isa.Bundle{
		{Tmpl: isa.TmplMMI, Slots: [3]isa.Inst{{Op: isa.OpLd8, R1: 4, R3: 5}, isa.Nop, isa.Nop}},
		{Tmpl: isa.TmplMMI, Slots: [3]isa.Inst{{Op: isa.OpSt8, R2: 4, R3: 6}, isa.Nop, isa.Nop}},
	}}
	if fs := verify.CheckSegment(seg, verify.Options{}); len(fs) != 0 {
		t.Fatalf("cross-bundle RAW reported without Advisory: %v", fs)
	}
	fs := verify.CheckSegment(seg, verify.Options{Advisory: true})
	wantExactly(t, fs, verify.RuleRAWCross)
	if fs[0].Sev != verify.SevAdvisory {
		t.Fatalf("severity = %v, want advisory", fs[0].Sev)
	}

	// With a full bundle in between the pair no longer shares an issue
	// group; the rule must stay quiet.
	seg.Bundles = []isa.Bundle{seg.Bundles[0], isa.NopBundle(), seg.Bundles[1]}
	if fs := verify.CheckSegment(seg, verify.Options{Advisory: true}); len(fs) != 0 {
		t.Fatalf("non-adjacent RAW flagged: %v", fs)
	}
}

// ---- acceptance: every compiled workload verifies clean ----

func TestAllWorkloadImagesVerifyClean(t *testing.T) {
	for _, bench := range workloads.All(0.05) {
		for _, lv := range []compiler.OptLevel{compiler.O2, compiler.O3} {
			opts := compiler.DefaultOptions()
			opts.Level = lv
			build, err := compiler.Build(bench.Kernel, opts)
			if err != nil {
				t.Fatalf("%s/%s: build: %v", bench.Name, lv, err)
			}
			fs := verify.CheckImage(build.Image, verify.Options{ReservedRegsUnused: true})
			if len(fs) != 0 {
				t.Errorf("%s/%s: %d finding(s), first: %v", bench.Name, lv, len(fs), fs[0])
			}
		}
	}
}

// Without register reservation (the Fig. 10 "no reserved registers"
// configuration) the allocator may hand out r27-r30 — that build must
// still verify clean with the reservation check off.
func TestNoReserveImagesVerifyClean(t *testing.T) {
	bench, err := workloads.ByName("mcf", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	opts := compiler.DefaultOptions()
	opts.ReserveRegs = false
	build, err := compiler.Build(bench.Kernel, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fs := verify.CheckImage(build.Image, verify.Options{}); len(fs) != 0 {
		t.Fatalf("findings: %v", fs)
	}
}
