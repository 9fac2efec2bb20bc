package harness

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// TestCycleProfilerNonPerturbing is the cycle profiler's bit-identity test
// at the harness level: a run with the cycle-sampling profiler (and a live
// metric registry) attached must produce exactly the same simulated results
// as a bare run — only the result shape changes (RunResult.Profile).
func TestCycleProfilerNonPerturbing(t *testing.T) {
	build := obsBuild(t, "art", 0.1)

	plain := DefaultRunConfig()
	plain.ADORE = true
	bare, err := RunContext(context.Background(), build, plain)
	if err != nil {
		t.Fatal(err)
	}

	rc := DefaultRunConfig()
	rc.ADORE = true
	rc.Profile = 4093
	rc.Metrics = metrics.NewRegistry()
	prof, err := RunContext(context.Background(), build, rc)
	if err != nil {
		t.Fatal(err)
	}

	if prof.CPU != bare.CPU {
		t.Errorf("profiling perturbed the run:\n  profiled: %+v\n  bare:     %+v", prof.CPU, bare.CPU)
	}
	if !reflect.DeepEqual(prof.Core, bare.Core) {
		t.Errorf("profiling perturbed controller stats:\n  profiled: %+v\n  bare:     %+v",
			prof.Core, bare.Core)
	}
	if bare.Profile != nil {
		t.Error("unprofiled run carries a profile")
	}
	if prof.Profile == nil {
		t.Fatal("profiled run returned nil profile")
	}
	if len(prof.Profile.Bundles) == 0 {
		t.Fatal("profile has no bundle cells")
	}
	if got, max := prof.Profile.AttributedCycles(), prof.CPU.Cycles; got > max {
		t.Errorf("attributed cycles %d exceed run cycles %d", got, max)
	}

	// And the profile itself is deterministic.
	again, err := RunContext(context.Background(), build, rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Profile, prof.Profile) {
		t.Errorf("profiles diverged across identical runs: %d vs %d bundles",
			len(again.Profile.Bundles), len(prof.Profile.Bundles))
	}

	// Profiled and unprofiled configs must never alias in a result cache.
	if plain.Fingerprint() == rc.Fingerprint() {
		t.Error("profiled and unprofiled RunConfigs share a fingerprint")
	}
}

// TestEngineMetricsFold runs small sweeps on a metered engine and checks
// the host-side and folded simulated aggregates:
// two of the jobs are identical (one result-cache hit), so adore_engine_*
// counts host work while adore_sim_* counts work served (the cached
// result folds twice). The fork-group case adds a probe and a
// continuation, which bypass the result cache; the merging group adds
// two members served the probe's run, which fold as served work but
// execute nothing.
func TestEngineMetricsFold(t *testing.T) {
	base := DefaultRunConfig()
	adore := DefaultRunConfig()
	adore.ADORE = true
	spec := telemetryCompileSpec(t, "art", 0.05)
	plain := []Job{
		{Name: "art/base", Compile: spec, Config: base},
		{Name: "art/base-again", Compile: spec, Config: base},
		{Name: "art/adore", Compile: spec, Config: adore},
	}
	group := forkGroupJobs(t, "art")
	gspec := group[0].Compile
	forked := append([]Job{
		{Name: "art/base", Compile: gspec, Config: base},
		{Name: "art/base-again", Compile: gspec, Config: base},
	}, group...)
	mgroup := mergeGroupJobs(t)
	mspec := mgroup[0].Compile
	merging := append([]Job{
		{Name: "mcf/base", Compile: mspec, Config: base},
		{Name: "mcf/base-again", Compile: mspec, Config: base},
	}, mgroup...)

	cases := []struct {
		name string
		jobs []Job
		// Result-cache misses: simulations the cache ran. Fork probes and
		// continuations run outside it.
		resultMisses uint64
		groups       int
		merged       int
	}{
		{"RunJobs", plain, 2, 0, 0},
		{"RunJobs/fork-group", forked, 1, 1, 0},
		{"RunJobs/merging-group", merging, 1, 1, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := metrics.NewRegistry()
			e := NewEngine(EngineConfig{Parallelism: 2, Metrics: r})
			out, stats, err := e.RunJobs(context.Background(), "telemetry-test", tc.jobs)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Groups != tc.groups || stats.MergedRuns != tc.merged {
				t.Fatalf("fork groups/merged = %d/%d, want %d/%d (stats %+v)",
					stats.Groups, stats.MergedRuns, tc.groups, tc.merged, stats)
			}

			counter := func(name string) uint64 {
				t.Helper()
				c := r.Counter(name, "")
				if c == nil {
					t.Fatalf("counter %s not registered", name)
				}
				return c.Value()
			}
			n := uint64(len(tc.jobs))
			if got := counter("adore_engine_jobs_started_total"); got != n {
				t.Errorf("jobs started = %d, want %d", got, n)
			}
			if got := counter("adore_engine_jobs_completed_total"); got != n {
				t.Errorf("jobs completed = %d, want %d", got, n)
			}
			if got := counter("adore_engine_jobs_failed_total"); got != 0 {
				t.Errorf("jobs failed = %d, want 0", got)
			}
			// One compile serves every job; one simulation serves both base jobs.
			if hits, misses := counter("adore_engine_build_cache_hits_total"),
				counter("adore_engine_build_cache_misses_total"); misses != 1 || hits != n-1 {
				t.Errorf("build cache hits/misses = %d/%d, want %d/1", hits, misses, n-1)
			}
			if hits, misses := counter("adore_engine_result_cache_hits_total"),
				counter("adore_engine_result_cache_misses_total"); misses != tc.resultMisses || hits != 1 {
				t.Errorf("result cache hits/misses = %d/%d, want 1/%d", hits, misses, tc.resultMisses)
			}
			if got := r.Histogram("adore_engine_queue_wait_ns", "").Count(); got != n {
				t.Errorf("queue-wait observations = %d, want %d", got, n)
			}

			// Folded sim totals cover every finished job, cache hits and
			// merged members included.
			var wantCycles, wantInsts uint64
			for _, res := range out {
				wantCycles += res.CPU.Cycles
				wantInsts += res.CPU.Retired
			}
			if got := counter("adore_sim_cycles_total"); got != wantCycles {
				t.Errorf("adore_sim_cycles_total = %d, want %d (sum over served jobs)", got, wantCycles)
			}
			if got := counter("adore_sim_instructions_total"); got != wantInsts {
				t.Errorf("adore_sim_instructions_total = %d, want %d (sum over served jobs)", got, wantInsts)
			}

			// Live controller counters agree with the Stats of the ADORE
			// runs that simulated: merged members execute nothing. A
			// merged result is the one shape with its leader's final
			// memory and no controller (a result-cache record has
			// neither). No patch precedes
			// a run's first policy decision, so a continuation's restored
			// prefix holds none and the patch counter is an exact sum.
			// Windows are counted live, so a continuation adds only those
			// past its snapshot.
			var patches, windows, first, mergedSeen int
			for i, res := range out[2:] {
				if res.Core == nil {
					t.Fatalf("ADORE job %d has no core stats", i+2)
				}
				windows += res.Core.WindowsObserved
				if i == 0 {
					first = res.Core.WindowsObserved
				}
				if res.Controller == nil && res.FinalMemory != nil {
					mergedSeen++
					continue
				}
				patches += res.Core.TracesPatched
			}
			if mergedSeen != tc.merged {
				t.Errorf("%d results served without a controller, want %d merged", mergedSeen, tc.merged)
			}
			if got := counter("adore_core_patches_installed_total"); got != uint64(patches) {
				t.Errorf("adore_core_patches_installed_total = %d, want %d", got, patches)
			}
			got := counter("adore_core_windows_observed_total")
			if tc.groups == 0 && got != uint64(windows) {
				t.Errorf("adore_core_windows_observed_total = %d, want %d", got, windows)
			}
			if tc.groups > 0 && (got <= uint64(first) || got >= uint64(windows)) {
				t.Errorf("adore_core_windows_observed_total = %d, want between the probe's %d and the straight total %d",
					got, first, windows)
			}

			// No loss signals on these tiny runs.
			if obsDropped, samples := e.Drops(); obsDropped != 0 || samples != 0 {
				t.Errorf("Drops() = %d/%d, want 0/0", obsDropped, samples)
			}
			// And the registry renders as valid Prometheus text.
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(sb.String(), "adore_engine_job_latency_ns_bucket") {
				t.Error("exposition missing job-latency histogram buckets")
			}
		})
	}
}

// telemetryCompileSpec builds the CompileSpec the engine tests schedule.
func telemetryCompileSpec(t *testing.T, name string, scale float64) CompileSpec {
	t.Helper()
	b, err := workloads.ByName(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	return CompileSpec{Name: name, Kernel: b.Kernel, Options: compiler.DefaultOptions()}
}

// TestProfileMatchesLoopAccounting is the acceptance cross-check: the
// sampled profile's per-loop cycle split must agree with the CPI-stack
// loop accounting (the exact per-cycle attribution), and `go tool pprof
// -top` over the export must rank the same loop hottest.
func TestProfileMatchesLoopAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("long: full mcf simulation + execs the go tool")
	}
	build := obsBuild(t, "mcf", 0.1)
	rc := DefaultRunConfig()
	rc.Observe = true // exact per-loop accounting (RunResult.LoopCPI)
	rc.Profile = 4093 // statistical per-loop attribution (RunResult.Profile)
	res, err := RunContext(context.Background(), build, rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile == nil || res.LoopCPI == nil {
		t.Fatal("run missing profile or loop accounting")
	}

	// The sampler charges whole inter-sample spans to the bundle executing
	// at fire time, so loop boundaries smear by up to one interval per
	// transition. Compare cycle *fractions* per loop with a coarse absolute
	// tolerance, over loops big enough for the statistics to hold.
	var acctTotal uint64
	for _, st := range res.LoopCPI {
		acctTotal += st.Total()
	}
	profTotal := res.Profile.AttributedCycles()
	if acctTotal == 0 || profTotal == 0 {
		t.Fatalf("degenerate totals: accounting %d, profile %d", acctTotal, profTotal)
	}
	byLoop := res.Profile.ByLoop()
	profCycles := make(map[int]uint64, len(byLoop))
	for _, lp := range byLoop {
		profCycles[lp.Loop] = lp.Cycles
	}
	const tol = 0.10 // absolute tolerance on the cycle fraction
	checked := 0
	for id, st := range res.LoopCPI {
		acctFrac := float64(st.Total()) / float64(acctTotal)
		if acctFrac < 0.05 {
			continue // too small for sampling statistics
		}
		profFrac := float64(profCycles[id]) / float64(profTotal)
		if diff := profFrac - acctFrac; diff > tol || diff < -tol {
			t.Errorf("loop %d: profile cycle share %.1f%% vs accounting %.1f%% (tolerance %.0f pp)",
				id, 100*profFrac, 100*acctFrac, 100*tol)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no loop holds >=5% of cycles; cross-check checked nothing")
	}

	// The hottest loop by accounting must also top the sampled profile.
	hotID, hotCycles := -2, uint64(0)
	for id, st := range res.LoopCPI {
		if tot := st.Total(); tot > hotCycles {
			hotID, hotCycles = id, tot
		}
	}
	if byLoop[0].Loop != hotID {
		t.Errorf("profile ranks loop %d hottest, accounting says loop %d", byLoop[0].Loop, hotID)
	}

	// End-to-end: the real pprof tool reads the export and its top row
	// names the hottest loop's frame.
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	path := filepath.Join(t.TempDir(), "mcf.pb.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.WritePprof(f, res.Profile); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	outBytes, err := exec.Command(gobin, "tool", "pprof", "-top", "-sample_index=cycles", path).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool pprof failed: %v\n%s", err, outBytes)
	}
	topFrame := obs.FrameName(byLoop[0].Loop, byLoop[0].Name, res.Profile.Program)
	if first := firstPprofRow(string(outBytes)); !strings.HasSuffix(first, topFrame) {
		t.Errorf("pprof -top first row %q does not end with hottest frame %q\nfull output:\n%s",
			first, topFrame, outBytes)
	}
}

// firstPprofRow returns the first data row of `pprof -top` output (the line
// after the "flat  flat%  ..." header).
func firstPprofRow(out string) string {
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		if strings.Contains(l, "flat%") && i+1 < len(lines) {
			return strings.TrimSpace(lines[i+1])
		}
	}
	return ""
}

// TestTelemetryOverhead guards the overhead bound of the full telemetry
// stack (metric registry + event recorder + controller counters + cycle
// sampler) with deterministic checks: the instrumented run simulates
// exactly what the bare run does, every counted decision kind shows the
// same total as recorded events, as its Stats field and as its
// adore_core_* counter, and the sampler fired at most once per interval.
// That the sampler allocates per sampled bundle and never per executed
// bundle is TestRunLoopAllocsObserved (internal/cpu); the wall-clock
// comparison is BenchmarkTelemetryOverhead.
func TestTelemetryOverhead(t *testing.T) {
	const interval = 4093
	build := obsBuild(t, "mcf", 0.1)
	rc := DefaultRunConfig()
	rc.ADORE = true
	off, err := RunContext(context.Background(), build, rc)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	rc.Metrics = reg
	rc.Observe = true
	rc.Profile = interval
	on, err := RunContext(context.Background(), build, rc)
	if err != nil {
		t.Fatal(err)
	}
	sameSimulation(t, "telemetry", on, off)

	c := on.Core
	if c.WindowsObserved == 0 || c.TracesPatched == 0 {
		t.Fatalf("run observed %d windows and patched %d traces; the counts below would be vacuous",
			c.WindowsObserved, c.TracesPatched)
	}
	if on.Obs.Dropped != 0 {
		t.Fatalf("recorder dropped %d events; the counts below would be partial", on.Obs.Dropped)
	}
	events := map[obs.Kind]int{}
	for _, e := range on.Obs.Events {
		events[e.Kind]++
	}
	// The registry hands back, by name, the counters the run incremented.
	for _, m := range []struct {
		kind   obs.Kind
		metric string
		stat   int
	}{
		{obs.KindWindowObserved, "adore_core_windows_observed_total", c.WindowsObserved},
		{obs.KindPhaseDetected, "adore_core_phases_detected_total", c.PhasesDetected},
		{obs.KindPhaseChange, "adore_core_phase_changes_total", c.PhaseChanges},
		{obs.KindTraceSelected, "adore_core_traces_selected_total", c.TracesSelected},
		{obs.KindPatchInstalled, "adore_core_patches_installed_total", c.TracesPatched},
		{obs.KindUnpatch, "adore_core_unpatches_total", c.Unpatches},
		{obs.KindVerifyReject, "adore_core_verify_rejects_total", c.VerifyRejects},
		{obs.KindPolicySelected, "adore_core_policy_selections_total", c.PolicySelections},
		{obs.KindPolicySwitched, "adore_core_policy_switches_total", c.PolicySwitches},
	} {
		counter := reg.Counter(m.metric, "").Value()
		if events[m.kind] != m.stat || counter != uint64(m.stat) {
			t.Errorf("%v: %d events, Stats %d, %s %d; want all equal (one per counted action)",
				m.kind, events[m.kind], m.stat, m.metric, counter)
		}
	}

	var samples uint64
	for _, b := range on.Profile.Bundles {
		samples += b.Samples
	}
	if samples == 0 || samples > on.CPU.Cycles/interval {
		t.Errorf("sampler fired %d times over %d cycles, want 1..%d (at most once per interval)",
			samples, on.CPU.Cycles, on.CPU.Cycles/interval)
	}
}

// BenchmarkTelemetryOverhead times the run TestTelemetryOverhead checks,
// bare and with the telemetry stack; the ratio of the two ns/op is the
// stack's wall-clock overhead.
func BenchmarkTelemetryOverhead(b *testing.B) {
	build := obsBuild(b, "mcf", 0.1)
	for _, telemetry := range []bool{false, true} {
		b.Run(fmt.Sprintf("telemetry=%v", telemetry), func(b *testing.B) {
			rc := DefaultRunConfig()
			rc.ADORE = true
			for i := 0; i < b.N; i++ {
				if telemetry {
					rc.Metrics = metrics.NewRegistry()
					rc.Profile = 4093
				}
				if _, err := RunContext(context.Background(), build, rc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
