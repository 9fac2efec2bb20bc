package core

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/pmu"
	"repro/internal/program"
	"repro/internal/verify"
)

func testController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := NewController(cfg, program.NewCodeSpace(), pmu.New(cfg.Sampling))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestVerifyTraceRejectsClobber drives the controller's fail-safe path: a
// "patch" that increments the loop counter (live program state) must be
// rejected before installation, counted, and surfaced via Findings.
func TestVerifyTraceRejectsClobber(t *testing.T) {
	c := testController(t, DefaultConfig())

	tr := twoBundleLoop()
	pristine := cloneTrace(tr)
	tr.Bundles[0].Slots[1] = isa.Inst{Op: isa.OpAddI, R1: 10, Imm: 8, R3: 10}

	if c.verifyTrace(0, tr, pristine) {
		t.Fatal("trace clobbering a live register passed verification")
	}
	if c.Stats.TracesVerified != 1 || c.Stats.VerifyRejects != 1 {
		t.Fatalf("stats = %+v, want 1 verified / 1 rejected", c.Stats)
	}
	fs := c.Findings()
	if len(fs) == 0 {
		t.Fatal("rejection left no findings")
	}
	for _, f := range fs {
		if f.Rule != verify.RuleClobber {
			t.Fatalf("finding %v, want rule %q", f, verify.RuleClobber)
		}
	}
}

func TestVerifyTraceAcceptsUntouchedTrace(t *testing.T) {
	c := testController(t, DefaultConfig())
	tr := twoBundleLoop()
	if !c.verifyTrace(0, tr, cloneTrace(tr)) {
		t.Fatalf("pristine trace rejected: %v", c.Findings())
	}
	if c.Stats.TracesVerified != 1 || c.Stats.VerifyRejects != 0 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestVerifyDisabledAcceptsAnything(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Verify = false
	c := testController(t, cfg)
	tr := twoBundleLoop()
	pristine := cloneTrace(tr)
	tr.Bundles[0].Slots[1] = isa.Inst{Op: isa.OpAddI, R1: 10, Imm: 8, R3: 10}
	if !c.verifyTrace(0, tr, pristine) {
		t.Fatal("verifyTrace rejected with Verify off")
	}
	if c.Stats.TracesVerified != 0 {
		t.Fatalf("stats counted a check with Verify off: %+v", c.Stats)
	}
}

// TestOptimizerOutputVerifies runs the real optimizer over the canonical
// loop fixture and checks its edits pass the verifier — the invariant the
// in-pipeline hook depends on.
func TestOptimizerOutputVerifies(t *testing.T) {
	cfg := DefaultConfig()
	c := testController(t, cfg)
	tr := twoBundleLoop()
	pristine := cloneTrace(tr)
	loads := []DelinquentLoad{{
		Bundle: 0, Slot: 0, PC: tr.Orig[0],
		Count: 64, TotalLatency: 8000, AvgLatency: 120,
	}}
	res := NewOptimizer(cfg).Optimize(tr, loads, 2.0)
	if res.Total() == 0 {
		t.Fatal("optimizer inserted nothing")
	}
	if !c.verifyTrace(0, tr, pristine) {
		t.Fatalf("optimizer output rejected: %v", c.Findings())
	}
}
