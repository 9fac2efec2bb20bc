package harness

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/compiler"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// obsBuild compiles one benchmark for the observability tests.
func obsBuild(t testing.TB, name string, scale float64) *compiler.BuildResult {
	t.Helper()
	b, err := workloads.ByName(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	build, err := compiler.Build(b.Kernel, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return build
}

// TestObservedRunDeterminism: the recorder is stamped on the simulated
// clock, so two observed runs of the same build must produce bit-identical
// event streams — and an unobserved run of the same build must produce the
// exact same cpu.Stats, because observing may not perturb the simulation.
func TestObservedRunDeterminism(t *testing.T) {
	build := obsBuild(t, "art", 0.1)
	rc := DefaultRunConfig()
	rc.ADORE = true
	rc.Observe = true

	first, err := RunContext(context.Background(), build, rc)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunContext(context.Background(), build, rc)
	if err != nil {
		t.Fatal(err)
	}
	if first.CPU != second.CPU {
		t.Errorf("cpu stats diverged:\n  first:  %+v\n  second: %+v", first.CPU, second.CPU)
	}
	if first.Obs == nil || second.Obs == nil {
		t.Fatal("observed run returned nil capture")
	}
	if !reflect.DeepEqual(first.Obs, second.Obs) {
		t.Errorf("event streams diverged: %d vs %d events (dropped %d vs %d)",
			len(first.Obs.Events), len(second.Obs.Events), first.Obs.Dropped, second.Obs.Dropped)
	}
	if !reflect.DeepEqual(first.CPIStack, second.CPIStack) {
		t.Errorf("CPI stacks diverged:\n  first:  %+v\n  second: %+v", first.CPIStack, second.CPIStack)
	}

	plain := DefaultRunConfig()
	plain.ADORE = true
	unobserved, err := RunContext(context.Background(), build, plain)
	if err != nil {
		t.Fatal(err)
	}
	if unobserved.CPU != first.CPU {
		t.Errorf("observing perturbed the run:\n  observed:   %+v\n  unobserved: %+v",
			first.CPU, unobserved.CPU)
	}
	if !reflect.DeepEqual(unobserved.Core, first.Core) {
		t.Errorf("observing perturbed controller stats:\n  observed:   %+v\n  unobserved: %+v",
			first.Core, unobserved.Core)
	}
	if unobserved.Obs != nil || unobserved.CPIStack != nil || unobserved.LoopCPI != nil {
		t.Error("unobserved run carries observability outputs")
	}
}

// TestObservedRunAcceptance is the PR's acceptance run: mcf at scale 0.1
// under ADORE with observability on must record the pipeline milestones,
// keep the per-window CPI-stack deltas consistent with the window clock,
// and export a valid Chrome trace.
func TestObservedRunAcceptance(t *testing.T) {
	build := obsBuild(t, "mcf", 0.1)
	rc := DefaultRunConfig()
	rc.ADORE = true
	rc.Observe = true

	res, err := RunContext(context.Background(), build, rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs == nil {
		t.Fatal("no capture")
	}
	if res.CPIStack == nil {
		t.Fatal("no CPI stack")
	}
	if got, want := res.CPIStack.Total(), res.CPU.Cycles; got != want {
		t.Errorf("whole-run CPI stack total %d != cycles %d", got, want)
	}

	counts := map[obs.Kind]int{}
	for _, e := range res.Obs.Events {
		counts[e.Kind]++
	}
	for _, k := range []obs.Kind{
		obs.KindWindowObserved, obs.KindPhaseDetected, obs.KindPatchInstalled,
		obs.KindCPIStack, obs.KindPrefetchWindow,
	} {
		if counts[k] == 0 {
			t.Errorf("no %v event recorded (counts %v)", k, counts)
		}
	}

	// Each core-level (Loop == -1) CPIStack event carries the cycles
	// accounted since the previous snapshot, and is stamped at the snapshot
	// instant — so consecutive stamps bound the delta exactly (well inside
	// the 1%-per-window acceptance bar).
	var prevCycle uint64
	checked := 0
	for _, e := range res.Obs.Events {
		if e.Kind != obs.KindCPIStack || e.Loop != -1 {
			continue
		}
		sum := e.A + e.B + e.C + e.D
		want := e.Cycle - prevCycle
		prevCycle = e.Cycle
		if sum != want {
			t.Errorf("window snapshot @%d: CPI-stack delta %d vs cycle delta %d",
				e.Cycle, sum, want)
		}
		checked++
	}
	if checked == 0 {
		t.Error("no core-level CPIStack windows checked")
	}

	var trace bytes.Buffer
	if err := obs.WriteChromeTrace(&trace, res.Obs); err != nil {
		t.Fatal(err)
	}
	n, err := obs.ValidateChromeTrace(trace.Bytes())
	if err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}
	if n == 0 {
		t.Error("exported trace has no timestamped events")
	}
	var jsonl bytes.Buffer
	if err := obs.WriteJSONL(&jsonl, res.Obs); err != nil {
		t.Fatal(err)
	}
	if jsonl.Len() == 0 {
		t.Error("empty JSONL export")
	}
}

// sameSimulation fails t unless a and b simulated exactly the same run:
// CPU, controller, per-level cache and prefetch statistics.
func sameSimulation(t *testing.T, layer string, a, b *RunResult) {
	t.Helper()
	if a.CPU != b.CPU {
		t.Errorf("%s perturbed cpu stats:\n on  %+v\n off %+v", layer, a.CPU, b.CPU)
	}
	if !reflect.DeepEqual(a.Core, b.Core) {
		t.Errorf("%s perturbed controller stats:\n on  %+v\n off %+v", layer, a.Core, b.Core)
	}
	if a.Mem != b.Mem {
		t.Errorf("%s perturbed hierarchy stats:\n on  %+v\n off %+v", layer, a.Mem, b.Mem)
	}
}

// TestObserveOverhead guards the "low-overhead" claim of the full
// observability layer (recorder + CPI-stack accounting + per-window
// sampling) on a serial Fig. 7 benchmark with deterministic checks: the
// observed run simulates exactly what the bare run does, and the recorder
// holds exactly one event per pipeline action the controller counts, so
// its work is proportional to those actions. That the run loop itself
// does not allocate under observation is TestRunLoopAllocsObserved
// (internal/cpu); the wall-clock comparison is BenchmarkObserveOverhead.
func TestObserveOverhead(t *testing.T) {
	build := obsBuild(t, "mcf", 0.1)
	rc := DefaultRunConfig()
	rc.ADORE = true
	off, err := RunContext(context.Background(), build, rc)
	if err != nil {
		t.Fatal(err)
	}
	rc.Observe = true
	on, err := RunContext(context.Background(), build, rc)
	if err != nil {
		t.Fatal(err)
	}
	sameSimulation(t, "observing", on, off)

	if on.Obs.Dropped != 0 {
		t.Fatalf("recorder dropped %d events; the counts below would be partial", on.Obs.Dropped)
	}
	got := map[obs.Kind]int{}
	coreStacks := 0
	for _, e := range on.Obs.Events {
		got[e.Kind]++
		if e.Kind == obs.KindCPIStack && e.Loop == -1 {
			coreStacks++
		}
	}
	c := on.Core
	if c.WindowsObserved == 0 || c.TracesPatched == 0 {
		t.Fatalf("run observed %d windows and patched %d traces; the counts below would be vacuous",
			c.WindowsObserved, c.TracesPatched)
	}
	want := map[obs.Kind]int{
		obs.KindWindowObserved: c.WindowsObserved,
		obs.KindPrefetchWindow: c.WindowsObserved,
		obs.KindPhaseDetected:  c.PhasesDetected,
		obs.KindPhaseChange:    c.PhaseChanges,
		obs.KindTraceSelected:  c.TracesSelected,
		obs.KindPatchInstalled: c.TracesPatched,
		obs.KindVerifyReject:   c.VerifyRejects,
		obs.KindUnpatch:        c.Unpatches,
		obs.KindPolicySelected: c.PolicySelections,
		obs.KindPolicySwitched: c.PolicySwitches,
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%v events: %d, want %d (one per counted action)", k, got[k], n)
		}
	}
	if coreStacks != c.WindowsObserved {
		t.Errorf("core-level CPIStack events: %d, want one per window (%d)", coreStacks, c.WindowsObserved)
	}
}

// BenchmarkObserveOverhead times the run TestObserveOverhead checks, with
// the observability layer off and on; the ratio of the two ns/op is the
// layer's wall-clock overhead.
func BenchmarkObserveOverhead(b *testing.B) {
	build := obsBuild(b, "mcf", 0.1)
	for _, observe := range []bool{false, true} {
		b.Run(fmt.Sprintf("observe=%v", observe), func(b *testing.B) {
			rc := DefaultRunConfig()
			rc.ADORE = true
			rc.Observe = observe
			for i := 0; i < b.N; i++ {
				if _, err := RunContext(context.Background(), build, rc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
