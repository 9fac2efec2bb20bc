package harness

import (
	"context"
	"testing"

	"repro/internal/compiler"
)

// TestFig7aShape is the reproduction's regression guard: the qualitative
// claims of the paper's headline figure must hold at reduced scale. If a
// change to the simulator, compiler, workloads or optimizer breaks any of
// the per-benchmark mechanisms, this test names the benchmark that moved.
func TestFig7aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long: full 17-benchmark sweep")
	}
	cfg := DefaultExpConfig()
	cfg.Scale = 0.3
	res, err := RunFig7Context(context.Background(), cfg, compiler.O2)
	if err != nil {
		t.Fatal(err)
	}
	sp := map[string]float64{}
	stats := map[string]SpeedupRow{}
	for _, r := range res.Rows {
		sp[r.Name] = r.Speedup
		stats[r.Name] = r
	}

	// The winners, with the paper's ordering mcf > art.
	for name, min := range map[string]float64{
		"mcf": 0.30, "art": 0.15, "equake": 0.15, "swim": 0.08,
		"facerec": 0.05, "bzip2": 0.08,
	} {
		if sp[name] < min {
			t.Errorf("%s speedup %.3f below shape floor %.3f", name, sp[name], min)
		}
	}
	if sp["mcf"] <= sp["art"] {
		t.Errorf("mcf (%.3f) must lead art (%.3f), as in the paper", sp["mcf"], sp["art"])
	}

	// The zeros, for their specific reasons.
	for _, name := range []string{"gzip", "vpr", "gap", "applu", "lucas", "gcc"} {
		if sp[name] > 0.05 {
			t.Errorf("%s gained %.3f but the paper's mechanism says ~0", name, sp[name])
		}
		if sp[name] < -0.05 {
			t.Errorf("%s lost %.3f, far below the paper's band", name, sp[name])
		}
	}

	// Mechanism fingerprints.
	if stats["gzip"].Stats.TracesPatched != 0 {
		t.Error("gzip was patched despite its too-short run")
	}
	if stats["mcf"].Stats.PointerPrefetches == 0 {
		t.Error("mcf got no pointer-chasing prefetches")
	}
	if stats["art"].Stats.DirectPrefetches == 0 {
		t.Error("art got no direct prefetches")
	}
	if stats["equake"].Stats.IndirectPrefetches == 0 {
		t.Error("equake got no indirect prefetch")
	}
	if stats["lucas"].Stats.AnalysisFailures == 0 && stats["vpr"].Stats.AnalysisFailures == 0 {
		t.Error("neither lucas nor vpr hit the fp-int slice failure")
	}
}
