package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/isa"
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
	if d := straight.Arch.Diff(forked.Arch, isa.StateCompare{}); len(d) != 0 {
		t.Errorf("architectural state diverged: %v", d)
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

// straightRuns runs each job straight on e, keeping the architectural
// state compareRuns checks but not the final memory, code space or
// controller, which would hold hundreds of MB across a matrix.
func straightRuns(t *testing.T, e *Engine, jobs []Job) []*RunResult {
	t.Helper()
	out := make([]*RunResult, len(jobs))
	err := e.each(context.Background(), len(jobs), func(ctx context.Context, i int) error {
		build, err := e.Cache().Build(jobs[i].Compile)
		if err != nil {
			return err
		}
		res, err := RunContext(ctx, build, jobs[i].Config)
		if err != nil {
			return err
		}
		res.FinalMemory, res.Code, res.Controller = nil, nil, nil
		out[i] = res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestForkMergedMembersMatchStraightRuns sends every ADORE member of the
// golden-scale policy matrix (17 workloads × 4 policies + selector)
// through RunJobsForked and demands each result be bit-identical to the
// straight run of that member's own configuration — probes that carried
// shadows, continuations resumed in rounds, and merged members served
// their leader's run alike, selector ledgers (PolicySelections,
// PolicySwitches) included.
func TestForkMergedMembersMatchStraightRuns(t *testing.T) {
	e := NewEngine(EngineConfig{})
	_, _, all := policyMatrixJobs(GoldenExpConfig())
	var jobs []Job
	for _, j := range all {
		if j.Config.ADORE {
			jobs = append(jobs, j)
		}
	}
	want := straightRuns(t, e, jobs)
	out, stats, err := e.RunJobsForked(context.Background(), "merge-test", jobs)
	if err != nil {
		t.Fatal(err)
	}
	// 85 members make 36 distinct decision sequences: 17 probes plus 19
	// continuations simulate, and the other 49 merge.
	if stats.MergedRuns != 49 || stats.ForkedRuns != 19 || stats.StraightRuns != 17 {
		t.Errorf("fork stats %+v, want 49 merged, 19 forked, 17 straight", stats)
	}
	for i, j := range jobs {
		t.Run(j.Name, func(t *testing.T) { compareRuns(t, want[i], out[i]) })
	}
}

// TestForkObservedGroupNeverMerges pins that an observed member never
// shares its leader's run, whether observation is asked for through
// RunConfig.Observe or directly through Core.Observe: its event stream
// records its own policy picks. Every member of mcf's merging group then
// simulates its own continuation, bit-identical to its straight run,
// events included.
func TestForkObservedGroupNeverMerges(t *testing.T) {
	for _, via := range []string{"RunConfig.Observe", "Core.Observe"} {
		t.Run(via, func(t *testing.T) {
			jobs := mergeGroupJobs(t)
			for i := range jobs {
				if via == "RunConfig.Observe" {
					jobs[i].Config.Observe = true
				} else {
					jobs[i].Config.Core.Observe = true
				}
			}
			e := NewEngine(EngineConfig{})
			want := straightRuns(t, e, jobs)
			out, stats, err := e.RunJobsForked(context.Background(), "observed", jobs)
			if err != nil {
				t.Fatal(err)
			}
			if stats.MergedRuns != 0 || stats.ForkedRuns != 3 {
				t.Errorf("fork stats %+v, want 0 merged, 3 forked", stats)
			}
			for i, j := range jobs {
				if want[i].Obs == nil || len(want[i].Obs.Events) == 0 {
					t.Fatalf("%s recorded no events", j.Name)
				}
				t.Run(j.Name, func(t *testing.T) { compareRuns(t, want[i], out[i]) })
			}
		})
	}
}

// TestShadowSamePath pins how the fork engine sorts members that
// diverged from a leader: on mcf at golden scale, two nextline shadows of
// a paper probe first differ at the same decision with the same outcome
// and may share a continuation, while nextline and adaptive differ from
// each other and lead their own. A merged shadow or one whose policy
// does not resolve shares a path with nobody.
func TestShadowSamePath(t *testing.T) {
	jobs := forkGroupJobs(t, "mcf")
	build, err := compiler.Build(jobs[0].Compile.Kernel, jobs[0].Compile.Options)
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []core.Config
	for _, pol := range []string{core.PolicyNextLine, core.PolicyNextLine, core.PolicyAdaptive, core.PolicyThrottle, "bogus"} {
		c := jobs[0].Config.Core
		c.Policy = pol
		cfgs = append(cfgs, c)
	}
	res, _, err := runForkProbe(context.Background(), build.Image, jobs[0].Config, ForkDivergence, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	sh := res.Controller.Shadows()
	next, next2, adaptive, throttle, bogus := sh[0], sh[1], sh[2], sh[3], sh[4]
	if next.Merged() || adaptive.Merged() || !throttle.Merged() || bogus.Merged() {
		t.Fatalf("merged: nextline %v, adaptive %v, throttle %v, bogus %v; want only throttle",
			next.Merged(), adaptive.Merged(), throttle.Merged(), bogus.Merged())
	}
	if !next.SamePath(next2) {
		t.Error("two nextline shadows do not share a path")
	}
	for _, c := range []struct {
		name string
		a, b *core.Shadow
	}{{"nextline/adaptive", next, adaptive}, {"nextline/throttle", next, throttle},
		{"throttle/throttle", throttle, throttle}, {"bogus/bogus", bogus, bogus}} {
		if c.a.SamePath(c.b) {
			t.Errorf("%s share a path", c.name)
		}
	}
}

// TestForkGroupBadPolicyFailsItself pins error attribution under
// merging: a group member whose policy does not resolve rides along the
// probe as a never-merged shadow, then runs on its own and fails with its
// own job's error, not the probe's.
func TestForkGroupBadPolicyFailsItself(t *testing.T) {
	jobs := forkGroupJobs(t, "mcf")
	jobs[1].Name = "mcf/bogus"
	jobs[1].Config.Core.Policy = "bogus"
	_, _, err := NewEngine(EngineConfig{}).RunJobsForked(context.Background(), "test", jobs)
	if err == nil || !strings.HasPrefix(err.Error(), "mcf/bogus: ") || !strings.Contains(err.Error(), "unknown prefetch policy") {
		t.Fatalf("err = %v, want mcf/bogus's unknown-policy error", err)
	}
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
		b.ReportMetric(float64(stats.MergedRuns), "merged-runs")
	}
}
