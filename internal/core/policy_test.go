package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/verify"
)

// pfStats abbreviates the usefulness-counter literals in the tables below.
func pfStats(issued, useful, late, unused uint64) memsys.PrefetchStats {
	return memsys.PrefetchStats{Issued: issued, Useful: useful, Late: late, EvictedUnused: unused}
}

// The policy-conformance suite: every registered prefetch policy — current
// and future — must honor the same contract the controller relies on when
// it hands a policy a cloned trace:
//
//	determinism     — same trace + loads + context ⇒ same edits
//	verifier-clean  — edited traces pass the static verifier
//	confined writes — injected code writes only r27-r30 / p6
//	benign on empty — no loads, or a non-loop trace ⇒ no edits
//
// The suite runs each policy under a spread of PrefetchContexts, so a
// policy whose behavior depends on the counters (adaptive, throttle) is
// exercised in every regime its thresholds carve out.

// policyTrace builds the canonical conformance input: a loop trace with a
// direct-pattern (stride-12) delinquent load, which every built-in policy
// knows how to prefetch.
func policyTrace() (*Trace, []DelinquentLoad) {
	tr := traceFromInsts([]isa.Inst{
		{Op: isa.OpLd4, R1: 20, R3: 14, PostInc: 12},
		{Op: isa.OpAddI, R1: 21, Imm: 1, R3: 21},
	})
	loads := []DelinquentLoad{{Bundle: 0, Slot: 0, PC: tr.Orig[0], Count: 50, TotalLatency: 8000, AvgLatency: 160}}
	return tr, loads
}

// policyContexts spans the counter regimes the built-in policies branch on.
func policyContexts() map[string]PrefetchContext {
	return map[string]PrefetchContext{
		"zero":    {},
		"steady":  {PhaseCPI: 2.0, Cycle: 1_000_000, Prefetch: pfStats(1000, 900, 10, 10)},
		"late":    {PhaseCPI: 2.0, Cycle: 1_000_000, Prefetch: pfStats(1000, 400, 500, 10)},
		"unused":  {PhaseCPI: 2.0, Cycle: 1_000_000, Prefetch: pfStats(1000, 300, 10, 600)},
		"bus-sat": {PhaseCPI: 2.0, Cycle: 1_000_000, Prefetch: pfStats(1000, 900, 10, 10), BusWaitCycles: 100_000},
	}
}

func TestPolicyRegistry(t *testing.T) {
	names := PrefetchPolicyNames()
	for _, want := range []string{PolicyAdaptive, PolicyNextLine, PolicyPaper, PolicyThrottle} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("registry missing %q (have %v)", want, names)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("PrefetchPolicyNames not sorted: %v", names)
		}
	}

	cfg := DefaultConfig()
	for _, name := range names {
		p, err := NewPrefetchPolicy(name, cfg)
		if err != nil {
			t.Fatalf("NewPrefetchPolicy(%q): %v", name, err)
		}
		if p.PolicyName() != name {
			t.Errorf("policy %q reports name %q", name, p.PolicyName())
		}
	}

	def, err := NewPrefetchPolicy("", cfg)
	if err != nil || def.PolicyName() != PolicyPaper {
		t.Fatalf("empty policy name = (%v, %v), want the paper default", def, err)
	}
	if _, err := NewPrefetchPolicy("nope", cfg); err == nil ||
		!strings.Contains(err.Error(), PolicyNextLine) {
		t.Fatalf("unknown policy error %v does not list valid names", err)
	}
}

// TestPolicyConformance runs the contract checks for every registered
// policy under every counter regime.
func TestPolicyConformance(t *testing.T) {
	cfg := DefaultConfig()
	pristine, loads := policyTrace()
	pv := pristine.View()

	for _, name := range PrefetchPolicyNames() {
		for ctxName, ctx := range policyContexts() {
			t.Run(name+"/"+ctxName, func(t *testing.T) {
				// Two independent instances on two clones: determinism must
				// hold across instances, not just calls (the selector and a
				// fixed-policy controller construct them separately).
				p1, err := NewPrefetchPolicy(name, cfg)
				if err != nil {
					t.Fatal(err)
				}
				p2, err := NewPrefetchPolicy(name, cfg)
				if err != nil {
					t.Fatal(err)
				}
				t1, t2 := cloneTrace(pristine), cloneTrace(pristine)
				r1 := p1.Optimize(t1, loads, ctx)
				r2 := p2.Optimize(t2, loads, ctx)
				if !reflect.DeepEqual(r1, r2) {
					t.Fatalf("nondeterministic result: %+v vs %+v", r1, r2)
				}
				if !reflect.DeepEqual(t1.Bundles, t2.Bundles) {
					t.Fatal("nondeterministic trace edits")
				}

				if fs := verify.Errors(verify.CheckTrace(t1.View(), &pv, verify.Options{})); len(fs) != 0 {
					t.Fatalf("edited trace fails verifier: %v", fs)
				}

				for _, in := range injectedInsts(pristine, t1) {
					if in.R1 != 0 && (in.R1 < isa.ReservedGRFirst || in.R1 > isa.ReservedGRLast) {
						t.Errorf("injected %s writes non-reserved r%d", in.Op, in.R1)
					}
					if in.F1 != 0 {
						t.Errorf("injected %s writes FP register f%d", in.Op, in.F1)
					}
					if (in.P1 != 0 && in.P1 != isa.ReservedPR) || (in.P2 != 0 && in.P2 != isa.ReservedPR) {
						t.Errorf("injected %s writes non-reserved predicate", in.Op)
					}
				}

				// No loads ⇒ no edits.
				empty := cloneTrace(pristine)
				if r := p1.Optimize(empty, nil, ctx); r.Total() != 0 {
					t.Fatalf("policy injected %d prefetches with no delinquent loads", r.Total())
				}
				if !reflect.DeepEqual(empty.Bundles, pristine.Bundles) {
					t.Fatal("policy edited a trace with no delinquent loads")
				}

				// Non-loop trace ⇒ no edits.
				straight := cloneTrace(pristine)
				straight.IsLoop = false
				if r := p1.Optimize(straight, loads, ctx); r.Total() != 0 {
					t.Fatalf("policy injected %d prefetches into a non-loop trace", r.Total())
				}
				if !reflect.DeepEqual(straight.Bundles, pristine.Bundles) {
					t.Fatal("policy edited a non-loop trace")
				}
			})
		}
	}
}

// injectedInsts returns the instructions present in edited but not in
// pristine, as a multiset difference over the flattened slots.
func injectedInsts(pristine, edited *Trace) []isa.Inst {
	seen := map[isa.Inst]int{}
	for _, bd := range pristine.Bundles {
		for _, in := range bd.Slots {
			seen[in]++
		}
	}
	var out []isa.Inst
	for _, bd := range edited.Bundles {
		for _, in := range bd.Slots {
			if seen[in] > 0 {
				seen[in]--
				continue
			}
			if in == isa.Nop {
				continue
			}
			out = append(out, in)
		}
	}
	return out
}

// TestNextLineFiresWithoutAnalyzablePattern pins the fallback property the
// selector relies on: a load the paper's slicer cannot classify (address
// register never advanced in the body) still gets a next-line prefetch.
func TestNextLineFiresWithoutAnalyzablePattern(t *testing.T) {
	tr := traceFromInsts([]isa.Inst{
		{Op: isa.OpLd8, R1: 20, R3: 14}, // no post-inc, r14 never redefined
		{Op: isa.OpAddI, R1: 21, Imm: 1, R3: 21},
	})
	loads := []DelinquentLoad{{Bundle: 0, Slot: 0, PC: tr.Orig[0], Count: 50, TotalLatency: 8000, AvgLatency: 160}}
	cfg := DefaultConfig()

	paper, err := NewPrefetchPolicy(PolicyPaper, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r := paper.Optimize(cloneTrace(tr), loads, PrefetchContext{PhaseCPI: 2.0}); r.Total() != 0 {
		t.Fatalf("paper policy classified the unclassifiable load: %+v", r)
	}

	nl, err := NewPrefetchPolicy(PolicyNextLine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	edited := cloneTrace(tr)
	r := nl.Optimize(edited, loads, PrefetchContext{PhaseCPI: 2.0})
	if r.Direct != 1 || r.Total() != 1 {
		t.Fatalf("nextline result = %+v, want one prefetch", r)
	}
	pv := tr.View()
	if fs := verify.Errors(verify.CheckTrace(edited.View(), &pv, verify.Options{})); len(fs) != 0 {
		t.Fatalf("nextline trace fails verifier: %v", fs)
	}
}

// TestSelectorDecisionLadder pins the pick rules against hand-built
// counter states.
func TestSelectorDecisionLadder(t *testing.T) {
	s := NewSelector(DefaultConfig())
	cases := []struct {
		name string
		ctx  PrefetchContext
		want string
	}{
		{"no evidence", PrefetchContext{}, PolicyPaper},
		{"healthy counters", PrefetchContext{Cycle: 1_000_000, Prefetch: pfStats(1000, 900, 10, 10)}, PolicyPaper},
		{"below issue gate", PrefetchContext{Cycle: 1_000_000, Prefetch: pfStats(32, 0, 32, 0)}, PolicyPaper},
		{"late-heavy", PrefetchContext{Cycle: 1_000_000, Prefetch: pfStats(1000, 400, 500, 10)}, PolicyAdaptive},
		// The evicted-unused counter alone must NOT trigger a retune: it
		// overcounts on overlapping streams (see selector.go).
		{"unused-heavy", PrefetchContext{Cycle: 1_000_000, Prefetch: pfStats(1000, 300, 10, 900)}, PolicyPaper},
		{"bus saturated", PrefetchContext{Cycle: 1_000_000, BusWaitCycles: 100_000, Prefetch: pfStats(1000, 900, 10, 10)}, PolicyThrottle},
		{"bus beats late", PrefetchContext{Cycle: 1_000_000, BusWaitCycles: 100_000, Prefetch: pfStats(1000, 400, 500, 10)}, PolicyThrottle},
	}
	picks := 0
	for _, c := range cases {
		if got := s.Pick(c.ctx).PolicyName(); got != c.want {
			t.Errorf("%s: picked %q, want %q", c.name, got, c.want)
		}
		picks++
	}
	total := 0
	for _, n := range s.Use() {
		total += n
	}
	if total != picks {
		t.Errorf("Use() accounts for %d decisions, want %d", total, picks)
	}

	if fb := s.Fallback(PolicyPaper); fb == nil || fb.PolicyName() != PolicyNextLine {
		t.Error("fallback from paper is not nextline")
	}
	if fb := s.Fallback(PolicyNextLine); fb != nil {
		t.Errorf("fallback chain does not terminate: %v", fb.PolicyName())
	}

	// A fallback that wins a trace is charged to the policy that ran.
	s.noteUse(PolicyNextLine)
	if n := s.Use()[PolicyNextLine]; n != 1 {
		t.Errorf("noteUse recorded %d nextline wins, want 1", n)
	}
}

// TestPolicyAdapterNames pins the identity the paper adapter reports and
// the name→index encoding obs events carry.
func TestPolicyAdapterNames(t *testing.T) {
	if n := (&paperPrefetch{}).PolicyName(); n != PolicyPaper {
		t.Errorf("paper prefetch policy reports %q", n)
	}
	for i, name := range PrefetchPolicyNames() {
		if idx := policyIndex(name); idx != uint64(i) {
			t.Errorf("policyIndex(%q) = %d, want %d", name, idx, i)
		}
	}
	if idx := policyIndex("nope"); idx != ^uint64(0) {
		t.Errorf("policyIndex of unknown name = %d, want sentinel", idx)
	}
}

// TestObservePolicyEvents pins the event shape the selector emits — indices
// resolve through the capture's policy name table — and that emit lands
// each event on all three views: the ring, Stats and the live counter.
func TestObservePolicyEvents(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Observe = true
	cfg.Selector = true
	cfg.Metrics = metrics.NewRegistry()
	c, err := NewController(cfg, program.NewCodeSpace(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Recording() {
		t.Fatal("Observe config did not arm the recorder")
	}

	c.emit(obs.Event{Cycle: 100, Kind: obs.KindPolicySelected, Loop: -1, PC: 0x2000,
		A: policyIndex(PolicyAdaptive), B: 1})
	tr, _ := policyTrace()
	c.emit(obs.Event{Cycle: 200, Kind: obs.KindPolicySwitched, Loop: -1, PC: tr.Start,
		A: policyIndex(PolicyPaper), B: policyIndex(PolicyNextLine)})

	cp := c.Capture()
	if cp == nil || len(cp.Events) != 2 {
		t.Fatalf("capture = %+v, want 2 events", cp)
	}
	if !reflect.DeepEqual(cp.Meta.Policies, PrefetchPolicyNames()) {
		t.Errorf("capture name table %v, want %v", cp.Meta.Policies, PrefetchPolicyNames())
	}
	sel := cp.Events[0]
	if sel.Kind != obs.KindPolicySelected || cp.Meta.Policies[sel.A] != PolicyAdaptive {
		t.Errorf("selected event %+v does not resolve to %q", sel, PolicyAdaptive)
	}
	sw := cp.Events[1]
	if sw.Kind != obs.KindPolicySwitched ||
		cp.Meta.Policies[sw.A] != PolicyPaper || cp.Meta.Policies[sw.B] != PolicyNextLine {
		t.Errorf("switched event %+v does not resolve to %q→%q", sw, PolicyPaper, PolicyNextLine)
	}

	if c.Stats.PolicySelections != 1 || c.Stats.PolicySwitches != 1 {
		t.Errorf("Stats counted %d selections and %d switches, want 1 and 1",
			c.Stats.PolicySelections, c.Stats.PolicySwitches)
	}
	for _, name := range []string{"adore_core_policy_selections_total", "adore_core_policy_switches_total"} {
		if v := cfg.Metrics.Counter(name, "").Value(); v != 1 {
			t.Errorf("%s = %d, want 1", name, v)
		}
	}
}

// TestControllerRejectsUnknownPolicy pins the config-validation path.
func TestControllerRejectsUnknownPolicy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = "bogus"
	if _, err := NewController(cfg, nil, nil); err == nil {
		t.Fatal("controller accepted an unknown policy name")
	}
}

func TestConfigPolicyKey(t *testing.T) {
	var cfg Config
	if k := cfg.PolicyKey(); k != PolicyPaper {
		t.Errorf("zero config policy key = %q", k)
	}
	cfg.Policy = PolicyAdaptive
	if k := cfg.PolicyKey(); k != PolicyAdaptive {
		t.Errorf("fixed policy key = %q", k)
	}
	cfg.Selector = true
	if k := cfg.PolicyKey(); k != "selector" {
		t.Errorf("selector policy key = %q", k)
	}
}
