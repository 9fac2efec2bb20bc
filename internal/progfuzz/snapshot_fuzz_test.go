package progfuzz_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/progfuzz"
)

// sameRun asserts two runs of the same configuration are bit-identical:
// architectural state, every counter the simulator keeps, and the final
// data memory. This is the fork engine's contract (DESIGN.md §16) checked
// from outside the harness package, on generated programs.
func sameRun(t *testing.T, label string, straight, forked *harness.RunResult) {
	t.Helper()
	if straight.CPU != forked.CPU {
		t.Errorf("%s: cpu stats diverged:\n straight %+v\n forked   %+v", label, straight.CPU, forked.CPU)
	}
	if d := straight.Arch.Diff(forked.Arch, isa.StateCompare{}); len(d) != 0 {
		t.Errorf("%s: architectural state diverged: %v", label, d)
	}
	if !reflect.DeepEqual(straight.Core, forked.Core) {
		t.Errorf("%s: controller stats diverged:\n straight %+v\n forked   %+v", label, straight.Core, forked.Core)
	}
	if straight.Mem != forked.Mem {
		t.Errorf("%s: hierarchy stats diverged:\n straight %+v\n forked   %+v", label, straight.Mem, forked.Mem)
	}
	if addr, sv, fv, diff := memsys.FirstDiff(straight.FinalMemory, forked.FinalMemory); diff {
		t.Errorf("%s: memory diverged at %#x: straight %#x, forked %#x", label, addr, sv, fv)
	}
}

// FuzzSnapshot is the generative checkpoint/fork target: bytes → a
// constrained random program, snapshotted at a fuzzed mid-run cycle (or at
// the policy-divergence point) and resumed — same-config always, and with
// a different fuzzed policy/selector when the snapshot precedes the first
// policy decision. Every resumed run must be bit-identical to the
// corresponding straight run.
func FuzzSnapshot(f *testing.F) {
	f.Add([]byte{}, uint64(0))                                   // minimal program, divergence mode
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint64(0))      // short mixed, divergence mode
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint64(50_001)) // short mixed, early fixed cycle
	seed := make([]byte, 160)
	for i := range seed {
		seed[i] = byte(i*37 + 11)
	}
	f.Add(seed, uint64(0))       // long multi-nest, divergence mode
	f.Add(seed, uint64(300_003)) // long multi-nest, mid-run fixed cycle
	hot := make([]byte, 200)
	for i := range hot {
		hot[i] = 0xff
	}
	f.Add(hot, uint64(999_999)) // hottest program, late fixed cycle
	// A bit-identical fixed-cycle run that leaves NaN in an FR: the
	// comparison must treat a NaN as equal to the same bit pattern.
	f.Add([]byte("1001102000000000007000070000009000081"), uint64(300003))

	f.Fuzz(func(t *testing.T, data []byte, captureMin uint64) {
		p, err := progfuzz.Generate(data)
		if err != nil {
			t.Fatalf("generate: %v", err)
		}

		cfg := harness.DefaultRunConfig()
		cfg.MaxInsts = 4_000_000
		cfg.ADORE = true
		cfg.Core = fuzzCore()
		cfg.Core.Policy, cfg.Core.Selector = progfuzz.PolicyFromInput(data)

		straight, err := harness.RunImage(p.Image, cfg)
		if err != nil {
			t.Fatalf("straight: %v", err)
		}

		ctx := context.Background()
		if captureMin%2 == 0 {
			// Divergence mode: freeze at the first policy decision, then
			// fork with a different fuzzed policy. Only sound when the
			// snapshot precedes every policy decision (Diverged, or a run
			// that never reached one).
			probe, snap, err := harness.RunForkProbeImage(ctx, p.Image, cfg, harness.ForkDivergence)
			if err != nil {
				t.Fatalf("probe: %v", err)
			}
			sameRun(t, "probe", straight, probe)
			if snap == nil {
				return // no snapshot-worthy boundary; nothing to resume
			}
			resumed, err := harness.RunForkedImage(ctx, p.Image, cfg, snap)
			if err != nil {
				t.Fatalf("same-config resume: %v", err)
			}
			sameRun(t, "same-config resume", straight, resumed)

			alt := cfg
			alt.Core.Policy, alt.Core.Selector = progfuzz.PolicyFromInput(append(data, 1))
			if alt.Core.Policy == cfg.Core.Policy && alt.Core.Selector == cfg.Core.Selector {
				return
			}
			altStraight, err := harness.RunImage(p.Image, alt)
			if err != nil {
				t.Fatalf("alt straight: %v", err)
			}
			altForked, err := harness.RunForkedImage(ctx, p.Image, alt, snap)
			if err != nil {
				t.Fatalf("alt fork: %v", err)
			}
			sameRun(t, "cross-policy fork", altStraight, altForked)
		} else {
			// Fixed-cycle mode: snapshot at the first eligible boundary at
			// or after a fuzzed mid-run cycle — possibly past policy
			// decisions, so only the same-config resume must reproduce the
			// straight run (the snapshot then includes the patched code).
			probe, snap, err := harness.RunForkProbeImage(ctx, p.Image, cfg, captureMin%1_500_000)
			if err != nil {
				t.Fatalf("probe: %v", err)
			}
			sameRun(t, "probe", straight, probe)
			if snap == nil {
				return
			}
			resumed, err := harness.RunForkedImage(ctx, p.Image, cfg, snap)
			if err != nil {
				t.Fatalf("mid-run resume: %v", err)
			}
			sameRun(t, "mid-run resume", straight, resumed)
		}
	})
}
