package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/workloads"
)

// The snapshot-equivalence suite: the fork engine's whole value is that a
// continuation resumed from a divergence-point snapshot is BIT-IDENTICAL
// to a straight run of the same configuration. These tests prove it over
// the full workload suite, both optimization levels, with and without
// patch installation, and — separately, because the observability layer
// widens the state that must survive a snapshot — with observation,
// series recording, and the profiler on.

// forkPolicies rotates probe/continuation policy pairs across table
// entries so every registered policy (and the selector) appears on both
// sides of a fork somewhere in the suite.
func forkPolicies(i int) (probe, cont string) {
	names := core.PrefetchPolicyNames()
	cols := append(append([]string(nil), names...), PolicySelectorColumn)
	probe = cols[i%len(cols)]
	cont = cols[(i+1)%len(cols)]
	return probe, cont
}

// forkRunConfig builds the run configuration for one policy column on
// the golden-scale ADORE parameters.
func forkRunConfig(core_ core.Config, col string, disableInsertion bool) RunConfig {
	rc := DefaultRunConfig()
	rc.ADORE = true
	rc.Core = core_
	rc.Core.DisableInsertion = disableInsertion
	if col == PolicySelectorColumn {
		rc.Core.Selector = true
	} else {
		rc.Core.Policy = col
	}
	return rc
}

// compareRuns demands bit-identity between a straight run and a forked
// continuation: CPU statistics, architectural state, controller
// statistics, prefetch counters, per-level cache statistics, recorded
// series, and (when observed) the event stream and cycle accounting.
func compareRuns(t *testing.T, straight, forked *RunResult) {
	t.Helper()
	if straight.CPU != forked.CPU {
		t.Errorf("cpu stats diverged:\n straight %+v\n forked   %+v", straight.CPU, forked.CPU)
	}
	if *straight.Arch != *forked.Arch {
		t.Errorf("architectural state diverged")
	}
	if (straight.Core == nil) != (forked.Core == nil) {
		t.Fatalf("core stats presence diverged")
	}
	if straight.Core != nil && *straight.Core != *forked.Core {
		t.Errorf("core stats diverged:\n straight %+v\n forked   %+v", *straight.Core, *forked.Core)
	}
	if straight.Mem != forked.Mem {
		t.Errorf("hierarchy stats diverged:\n straight %+v\n forked   %+v", straight.Mem, forked.Mem)
	}
	if !reflect.DeepEqual(straight.Series, forked.Series) {
		t.Errorf("series diverged: %d points straight, %d forked", len(straight.Series), len(forked.Series))
	}
	if (straight.Obs == nil) != (forked.Obs == nil) {
		t.Fatalf("observability capture presence diverged")
	}
	if straight.Obs != nil {
		if straight.Obs.Dropped != forked.Obs.Dropped {
			t.Errorf("obs dropped diverged: %d vs %d", straight.Obs.Dropped, forked.Obs.Dropped)
		}
		if !reflect.DeepEqual(straight.Obs.Events, forked.Obs.Events) {
			t.Errorf("obs event streams diverged: %d events straight, %d forked",
				len(straight.Obs.Events), len(forked.Obs.Events))
		}
	}
	if !reflect.DeepEqual(straight.CPIStack, forked.CPIStack) {
		t.Errorf("CPI stack diverged:\n straight %+v\n forked   %+v", straight.CPIStack, forked.CPIStack)
	}
	if !reflect.DeepEqual(straight.LoopCPI, forked.LoopCPI) {
		t.Errorf("per-loop CPI diverged")
	}
	if !reflect.DeepEqual(straight.Profile, forked.Profile) {
		t.Errorf("execution profile diverged")
	}
}

// TestForkEquivalenceSuite runs every workload × {O2, O3} × {patching
// on, off}: a probe run under one policy captures the divergence-point
// snapshot, a continuation under a DIFFERENT policy resumes from it, and
// the continuation must be bit-identical to a straight run of its own
// configuration. Workloads that never reach a policy point (no stable
// phase at this scale) return a nil snapshot and prove the fallback
// contract instead.
func TestForkEquivalenceSuite(t *testing.T) {
	base := GoldenExpConfig()
	for wi, b := range workloads.All(base.Scale) {
		for _, level := range []compiler.OptLevel{compiler.O2, compiler.O3} {
			for _, disable := range []bool{false, true} {
				b, level, disable, wi := b, level, disable, wi
				name := fmt.Sprintf("%s/%v/insertion=%v", b.Name, level, !disable)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					sp := benchSpec(b, base.Scale, level)
					build, err := compiler.Build(sp.Kernel, sp.Options)
					if err != nil {
						t.Fatal(err)
					}
					probePol, contPol := forkPolicies(wi)
					probeCfg := forkRunConfig(base.Core, probePol, disable)
					contCfg := forkRunConfig(base.Core, contPol, disable)

					probeRes, snap, err := RunForkProbeImage(context.Background(), build.Image, probeCfg, ForkDivergence)
					if err != nil {
						t.Fatal(err)
					}
					// The probe itself must be unperturbed by capturing:
					// identical to a plain straight run of its config.
					probeStraight, err := RunImage(build.Image, probeCfg)
					if err != nil {
						t.Fatal(err)
					}
					compareRuns(t, probeStraight, probeRes)

					straight, err := RunImage(build.Image, contCfg)
					if err != nil {
						t.Fatal(err)
					}
					if snap == nil {
						// No snapshot-worthy boundary at all: the engine
						// falls back to straight runs; nothing to compare.
						return
					}
					// Diverged snapshots froze at the probe's first policy
					// decision; non-diverged ones mean the probe made NO
					// policy decision, so the whole run is policy-independent
					// and forking from the last boundary is equally sound.
					if snap.Cycle == 0 || snap.Cycle >= straight.CPU.Cycles {
						t.Fatalf("snapshot cycle %d outside run (0, %d)", snap.Cycle, straight.CPU.Cycles)
					}
					cont, err := RunForkedImage(context.Background(), build.Image, contCfg, snap)
					if err != nil {
						t.Fatal(err)
					}
					compareRuns(t, straight, cont)
				})
			}
		}
	}
}

// TestForkEquivalenceObserved re-proves bit-identity with the full
// observability surface on — event recorder, CPI-stack accounting,
// series recording, and the cycle-sampling profiler — on a workload that
// reliably patches. This is the state the plain suite does not exercise:
// the obs ring, accounting maps, and profiler samples must all survive
// the snapshot/restore round trip.
func TestForkEquivalenceObserved(t *testing.T) {
	base := GoldenExpConfig()
	for _, wl := range []string{"mcf", "art"} {
		wl := wl
		t.Run(wl, func(t *testing.T) {
			t.Parallel()
			b, err := workloads.ByName(wl, base.Scale)
			if err != nil {
				t.Fatal(err)
			}
			sp := benchSpec(b, base.Scale, compiler.O2)
			build, err := compiler.Build(sp.Kernel, sp.Options)
			if err != nil {
				t.Fatal(err)
			}
			mk := func(col string) RunConfig {
				rc := forkRunConfig(base.Core, col, false)
				rc.Observe = true
				rc.RecordSeries = true
				rc.Profile = 4099
				return rc
			}
			_, snap, err := RunForkProbeImage(context.Background(), build.Image, mk("paper"), ForkDivergence)
			if err != nil {
				t.Fatal(err)
			}
			if snap == nil {
				t.Fatalf("%s grew no snapshot — pick a workload that patches at golden scale", wl)
			}
			straight, err := RunImage(build.Image, mk("nextline"))
			if err != nil {
				t.Fatal(err)
			}
			cont, err := RunForkedImage(context.Background(), build.Image, mk("nextline"), snap)
			if err != nil {
				t.Fatal(err)
			}
			if straight.Obs == nil || len(straight.Obs.Events) == 0 {
				t.Fatal("observed run recorded no events")
			}
			compareRuns(t, straight, cont)
		})
	}
}

// TestForkProbeValidation pins the structural error paths: probing or
// resuming without ADORE is an error, and a snapshot cannot be restored
// into a machine with different geometry.
func TestForkProbeValidation(t *testing.T) {
	base := GoldenExpConfig()
	b, err := workloads.ByName("mcf", base.Scale)
	if err != nil {
		t.Fatal(err)
	}
	sp := benchSpec(b, base.Scale, compiler.O2)
	build, err := compiler.Build(sp.Kernel, sp.Options)
	if err != nil {
		t.Fatal(err)
	}
	plain := DefaultRunConfig()
	if _, _, err := RunForkProbeImage(context.Background(), build.Image, plain, ForkDivergence); err == nil {
		t.Error("probe without ADORE did not error")
	}

	cfg := forkRunConfig(base.Core, "paper", false)
	_, snap, err := RunForkProbeImage(context.Background(), build.Image, cfg, ForkDivergence)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("mcf grew no snapshot at golden scale")
	}
	if _, err := RunForkedImage(context.Background(), build.Image, plain, snap); err == nil {
		t.Error("resume without ADORE did not error")
	}
	bad := cfg
	bad.Hierarchy.L1D.Size *= 2
	if _, err := RunForkedImage(context.Background(), build.Image, bad, snap); err == nil {
		t.Error("resume into a different hierarchy geometry did not error")
	}
	badCPU := cfg
	badCPU.CPU.IssueBundles++
	if _, err := RunForkedImage(context.Background(), build.Image, badCPU, snap); err == nil {
		t.Error("resume into a different CPU config did not error")
	}
}

// TestForkProbeCaptureMin pins the fuzzer-facing capture mode: a finite
// captureMin freezes the snapshot at the first eligible boundary at or
// after that cycle, and resuming the SAME configuration from it is
// bit-identical to the straight run.
func TestForkProbeCaptureMin(t *testing.T) {
	base := GoldenExpConfig()
	b, err := workloads.ByName("ammp", base.Scale)
	if err != nil {
		t.Fatal(err)
	}
	sp := benchSpec(b, base.Scale, compiler.O2)
	build, err := compiler.Build(sp.Kernel, sp.Options)
	if err != nil {
		t.Fatal(err)
	}
	cfg := forkRunConfig(base.Core, "paper", false)
	straight, err := RunImage(build.Image, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Mid-run capture points, including past the divergence: same-config
	// resume must hold anywhere, not only at the policy point.
	c := straight.CPU.Cycles
	for _, min := range []uint64{c / 4, c / 2, 3 * c / 4} {
		probeRes, snap, err := RunForkProbeImage(context.Background(), build.Image, cfg, min)
		if err != nil {
			t.Fatal(err)
		}
		compareRuns(t, straight, probeRes)
		if snap == nil {
			t.Fatalf("no boundary at/after cycle %d", min)
		}
		if snap.Cycle < min {
			t.Fatalf("snapshot at %d, before captureMin %d", snap.Cycle, min)
		}
		cont, err := RunForkedImage(context.Background(), build.Image, cfg, snap)
		if err != nil {
			t.Fatal(err)
		}
		compareRuns(t, straight, cont)
	}
}

// TestForkPolicyMatrixBitIdentical is the sweep-level acceptance test:
// the forked policy matrix must be byte-identical (as JSON) to the
// straight engine's, and must pass the checked-in policy golden
// unmodified. The fork statistics must show real warmup sharing.
func TestForkPolicyMatrixBitIdentical(t *testing.T) {
	straight := straightPolicyMatrix(t)
	fcfg := GoldenExpConfig()
	fcfg.Engine = NewEngine(EngineConfig{})
	forked, stats, err := RunPolicyMatrixForkedContext(context.Background(), fcfg)
	if err != nil {
		t.Fatal(err)
	}
	sj, err := json.Marshal(straight)
	if err != nil {
		t.Fatal(err)
	}
	fj, err := json.Marshal(forked)
	if err != nil {
		t.Fatal(err)
	}
	if string(sj) != string(fj) {
		t.Errorf("forked matrix is not byte-identical to straight matrix:\n straight %s\n forked   %s", sj, fj)
	}

	g, err := LoadPolicyGolden(policyGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range g.Compare(forked) {
		t.Error(d)
	}

	if stats.Groups == 0 || stats.ForkedRuns == 0 {
		t.Fatalf("no fork groups formed: %+v", stats)
	}
	// Every group shares one warmup across its 5 ADORE columns (4
	// policies + selector), so the grouped warmup reduction is exactly
	// the member count.
	if r := stats.WarmupReduction(); r < 4.9 {
		t.Errorf("warmup reduction %.2f×, want ~5× (stats %+v)", r, stats)
	}
	t.Logf("fork stats: %+v (%.1f× warmup reduction)", stats, stats.WarmupReduction())
}

// BenchmarkForkSweep times the forked policy-matrix sweep; benchstat
// rows against the straight engine quantify the throughput win.
func BenchmarkForkSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := GoldenExpConfig()
		cfg.Scale = 0.02
		cfg.Engine = NewEngine(EngineConfig{})
		_, stats, err := RunPolicyMatrixForkedContext(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(stats.WarmupReduction(), "warmup-reduction")
	}
}
