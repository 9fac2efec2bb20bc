package progfuzz_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/pmu"
	"repro/internal/progfuzz"
	"repro/internal/verify"
)

// fuzzCore returns ADORE parameters scaled for the short fuzz programs:
// aggressive sampling and polling so even a few hundred thousand cycles
// give the optimizer a chance to detect a phase and patch.
func fuzzCore() core.Config {
	cfg := core.DefaultConfig()
	cfg.Sampling = pmu.Config{SampleInterval: 2000, SSBSize: 64, DearLatencyMin: 8, HandlerCyclesPerSample: 30}
	cfg.W = 8
	cfg.PollInterval = 20_000
	cfg.StableWindows = 3
	return cfg
}

// FuzzDifferential is the generative differential target: bytes → a
// constrained random program (internal/progfuzz) → oracle vs machine, with
// and without the runtime optimizer attached. Any divergence — register
// state, memory, counters, or a patch that does not undo cleanly — fails.
func FuzzDifferential(f *testing.F) {
	// Seeds name the grammar's corners; the corpus files under
	// testdata/fuzz/FuzzDifferential extend these with found shapes.
	f.Add([]byte{})                              // minimal: zero entropy
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}) // short mixed program
	seed := make([]byte, 160)
	for i := range seed {
		seed[i] = byte(i*37 + 11)
	}
	f.Add(seed) // long multi-nest program
	hot := make([]byte, 200)
	for i := range hot {
		hot[i] = 0xff // every knob maxed: longest loops, most ops
	}
	f.Add(hot)

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := progfuzz.Generate(data)
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		if fs := verify.CheckImage(p.Image, verify.Options{ReservedRegsUnused: true}); len(fs) != 0 {
			t.Fatalf("generated program has verifier findings: %v", fs)
		}

		or, err := harness.RunOracle(p.Image, 4_000_000)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}

		plain := harness.DefaultRunConfig()
		plain.MaxInsts = 4_000_000
		rep, err := harness.DiffAgainstContext(context.Background(), or, p.Image, plain)
		if err != nil {
			t.Fatalf("plain: %v", err)
		}
		if rep.Failed() {
			t.Errorf("plain: %s", rep)
		}

		adore := harness.DefaultRunConfig()
		adore.MaxInsts = 4_000_000
		adore.ADORE = true
		adore.Core = fuzzCore()
		// Each fuzzed program also samples a prefetch policy (or the
		// runtime selector) from its input bytes, so the differential
		// oracle covers every policy's injected code, not just the paper
		// default.
		adore.Core.Policy, adore.Core.Selector = progfuzz.PolicyFromInput(data)
		rep, err = harness.DiffAgainstContext(context.Background(), or, p.Image, adore)
		if err != nil {
			t.Fatalf("adore: %v", err)
		}
		if rep.Failed() {
			t.Errorf("adore: %s", rep)
		}
	})
}
